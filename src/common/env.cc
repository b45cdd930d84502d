#include "src/common/env.h"

#include <cstring>

#include "src/common/check.h"

namespace pipedream {

bool ParseEnvSwitch(const char* name, const char* value) {
  if (value == nullptr || value[0] == '\0' || std::strcmp(value, "0") == 0) {
    return false;
  }
  PD_CHECK(std::strcmp(value, "1") == 0)
      << name << "=" << value << " is not a switch (want unset, empty, 0, or 1)";
  return true;
}

}  // namespace pipedream
