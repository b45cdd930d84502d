// Parsing for the on/off switches the library reads from the environment:
// PIPEDREAM_NAIVE_KERNELS, PIPEDREAM_NO_POOL and PIPEDREAM_METRICS_TABLE.
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

namespace pipedream {

// Parses `value`, the result of std::getenv(name): null, empty, or "0" is off and "1" is
// on. Any other value aborts naming the variable — "false" or "yes" must not silently pick
// a side of a switch that changes which kernels or allocator a run measures. Callers make
// the getenv call themselves so that every variable the code reads appears as a literal
// getenv("PIPEDREAM_...") call, which tests/docs/check_env_flags.sh collects.
bool ParseEnvSwitch(const char* name, const char* value);

}  // namespace pipedream

#endif  // SRC_COMMON_ENV_H_
