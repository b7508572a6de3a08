// Deterministic random number generation.
//
// Every stochastic component in SiloD (trace generation, shuffled epochs,
// profiling noise) draws from an explicitly seeded Rng so that simulations are
// reproducible bit-for-bit across runs and platforms.  We implement
// xoshiro256** seeded through SplitMix64 rather than relying on
// std::mt19937 + distribution objects, whose outputs are not specified to be
// identical across standard library implementations.
#ifndef SILOD_SRC_COMMON_RNG_H_
#define SILOD_SRC_COMMON_RNG_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace silod {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5157D00DULL);

  // Uniform bits in [0, 2^64).
  std::uint64_t NextU64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, n).  n must be > 0.  Rejection on the low end
  // keeps the distribution exactly uniform: a draw below 2^64 mod n is
  // redrawn.  That threshold is below n, so a draw of at least n is accepted
  // without computing it, with one division; the stream and the outputs are
  // those of the loop that computes the threshold first.
  std::uint64_t NextBelow(std::uint64_t n) {
    std::uint64_t r = NextU64();
    if (r >= n) {
      return r % n;
    }
    const std::uint64_t threshold = -n % n;
    while (r < threshold) {
      r = NextU64();
    }
    return r % n;
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  // Log-normal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  // Forks an independent stream; deterministic function of this stream's state.
  Rng Fork();

  // Raw xoshiro256** state, for crash forensics (fault/minidump.h): capturing
  // and restoring a stream mid-run makes replay deterministic.  The Box-Muller
  // spare from Normal() is NOT part of the state — streams that draw normals
  // across a capture point are not exactly restorable (no minidump consumer
  // draws normals).
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) {
      s_[i] = s[static_cast<std::size_t>(i)];
    }
    have_spare_normal_ = false;
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace silod

#endif  // SILOD_SRC_COMMON_RNG_H_
