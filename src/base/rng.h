// Deterministic pseudo-random number generation for reproducible simulation.
//
// Uses xoshiro256** seeded through splitmix64, so every run of a benchmark or
// test with the same seed produces byte-identical event schedules.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstdint>

namespace kite {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x6b697465ULL /* "kite" */);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial with probability p of returning true.
  bool NextBool(double p);

  // Exponentially distributed value with the given mean (for inter-arrival
  // times in open-loop load generators).
  double NextExponential(double mean);

  // Fork a statistically independent child generator (stable across runs).
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace kite

#endif  // SRC_BASE_RNG_H_
