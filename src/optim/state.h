// The storage rule for optimizer state (SGD and LARS velocity, Adam moments): an entry
// whose magnitude falls below FLT_MIN is stored as exactly 0.
//
// A unit whose gradient goes to zero (a dead ReLU, say) leaves its state decaying
// geometrically into the subnormal range, where round-to-nearest pins it at a few ulps for
// good: 0.9 * 4 * 2^-149 rounds back to 4 * 2^-149. Every later step then pays the
// subnormal-arithmetic penalty on each such entry, which made a dense layer's step ~30x
// slower. Flushing at the store, rather than setting FTZ/DAZ in MXCSR, leaves every
// kernel's numerics, and so every oracle comparison, untouched.
#ifndef SRC_OPTIM_STATE_H_
#define SRC_OPTIM_STATE_H_

#include <cfloat>
#include <cmath>

namespace pipedream {

// The value to store for an optimizer state entry computed as v. NaN passes through.
inline float StateValue(float v) { return std::fabs(v) < FLT_MIN ? 0.0f : v; }

}  // namespace pipedream

#endif  // SRC_OPTIM_STATE_H_
