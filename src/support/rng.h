// Deterministic pseudo-random number generator (splitmix64 + xoshiro256**).
// All randomness in workload generation and the network simulator flows through
// seeded Rng instances so experiments are reproducible bit-for-bit.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/support/hash.h"

namespace dvm {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      s = Mix64(x);
    }
  }

  uint64_t Next() {
    uint64_t result = RotL(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t Uniform(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  // Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  bool Chance(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller.
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) {
      u1 = 1e-300;
    }
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  // Lognormal with the given mean and stddev of the *resulting* distribution.
  // Used to model wide-area applet fetch latency (paper: mean 2198 ms, sigma 3752 ms).
  double NextLognormal(double mean, double stddev) {
    double variance = stddev * stddev;
    double mu = std::log(mean * mean / std::sqrt(variance + mean * mean));
    double sigma = std::sqrt(std::log(1.0 + variance / (mean * mean)));
    return std::exp(mu + sigma * NextGaussian());
  }

 private:
  static uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace dvm

#endif  // SRC_SUPPORT_RNG_H_
