// Deterministic pseudo-random number generation.
//
// Everything random in the simulation (workload access jitter, device latency noise)
// flows through SplitMix64 so runs are reproducible given a seed. We avoid <random>
// engines because their distributions are not bit-stable across standard libraries.

#ifndef FAASNAP_SRC_COMMON_RNG_H_
#define FAASNAP_SRC_COMMON_RNG_H_

#include <cstdint>

namespace faasnap {

// SplitMix64: tiny, fast, and passes BigCrush when used as a seeder or stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  // Next 64 uniformly distributed bits.
  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return NextU64() % bound; }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_COMMON_RNG_H_
