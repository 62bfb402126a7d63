// Deterministic pseudo-random generation for workloads and arrival processes.
//
// xoshiro256** seeded via SplitMix64; independent streams per component keep
// experiments reproducible regardless of event interleaving.
//
// Stream-handout rule: a stream's seed must be a pure function of *what the
// stream is for* — (base seed, domain, purpose) — never of when it was
// created. A creation-order counter would silently entangle every consumer:
// reordering two Rng constructions (or running domains on different host
// threads) would reshuffle all downstream draws. DeriveStreamSeed encodes
// the keyed scheme; tests/random_stream_test.cc pins it.
#ifndef MK_SIM_RANDOM_H_
#define MK_SIM_RANDOM_H_

#include <array>
#include <cmath>
#include <cstdint>

namespace mk::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) via Lemire's multiply-shift (bound > 0).
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) { return lo + Below(hi - lo + 1); }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Exponentially distributed value with the given mean (Poisson interarrival).
  double Exponential(double mean) {
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

  bool Chance(double p) { return NextDouble() < p; }

 private:
  static std::uint64_t Rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

  std::array<std::uint64_t, 4> state_{};
};

// Derives an independent stream seed from (base, domain, purpose) — a pure
// function of the key, with no hidden state, so two streams with the same
// key always see the same draws no matter which was created first or which
// host thread asks. Domain 0 / purpose 0 yields `base` unchanged, keeping
// every pre-parallel-engine seeding byte-identical.
inline std::uint64_t DeriveStreamSeed(std::uint64_t base, int domain,
                                      std::uint64_t purpose = 0) {
  if (domain == 0 && purpose == 0) {
    return base;
  }
  // SplitMix64 finalizer over the packed key: cheap, and one bit of key
  // change avalanches the whole seed (adjacent domains get unrelated
  // streams rather than shifted copies).
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(domain) + 1) +
                    0xbf58476d1ce4e5b9ULL * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace mk::sim

#endif  // MK_SIM_RANDOM_H_
