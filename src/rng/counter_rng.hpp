#pragma once

#include <cstdint>
#include <stdexcept>

#include "rng/splitmix64.hpp"

namespace casurf {

/// Counter-based (stateless) random number generator in the spirit of
/// Philox/Threefry: the n-th value of stream (seed, key) is a pure function
/// of (seed, key, n). This is what makes the threaded PNDCA engine
/// *deterministic*: every (step, site) pair owns its own stream, so the
/// trajectory is identical no matter how chunk sites are scheduled across
/// threads. Two rounds of the SplitMix64 finalizer over the packed words
/// give full avalanche between counter bits and output bits.
class CounterRng {
 public:
  /// `key` identifies the logical stream (e.g. packed step/site);
  /// consecutive `next()` calls walk the stream.
  constexpr CounterRng(std::uint64_t seed, std::uint64_t key)
      : base_(stream_base(seed, key)), counter_(0) {}

  constexpr std::uint64_t next() { return nth(base_, ++counter_); }

  /// Uniform double in [0, 1). 53 random mantissa bits.
  constexpr double next_double() { return to_unit(next()); }

  /// Uniform integer in [0, bound) by Lemire's multiply-shift reduction
  /// (negligible bias for bounds << 2^64; exactness is irrelevant for
  /// stochastic simulation and the speed matters on the trial hot path).
  /// A zero bound has no value to return — the multiply-shift would
  /// silently yield 0, masking an empty candidate set — so it throws.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) {
      throw std::invalid_argument("CounterRng::next_below: bound must be positive");
    }
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>(
        (static_cast<u128>(next()) * static_cast<u128>(bound)) >> 64);
  }

  /// Pack a (step, site, salt) triple into a stream key. The salt runs
  /// through the finalizer like the other words: the previous `salt << 1`
  /// dropped the top salt bit (salts s and s | 2^63 collided outright) and
  /// left salts s and s ^ b one pre-finalization bit apart.
  static constexpr std::uint64_t key(std::uint64_t step, std::uint64_t site,
                                     std::uint64_t salt = 0) {
    return mix64(step_word(step) + site) ^ mix64(salt);
  }

  /// The pre-finalizer counter word of key(step, site): key(step, site) ==
  /// mix64(step_word(step) + site). Exposed for the CA family's draw kernels
  /// (ca/fastpath.hpp), whose stream word is seed_hash(seed) ^
  /// mix64(step_word(step) + site): one mix of the key, the per-sweep half
  /// hoisted out of the lane loop.
  static constexpr std::uint64_t step_word(std::uint64_t step) {
    return step * 0xd1342543de82ef95ULL;
  }

  /// The seed half of every stream base: stream_base(seed, key) ==
  /// seed_hash(seed) ^ mix64(key). The draw kernels xor it into their
  /// stream words the same way, hoisted out of the loop.
  static constexpr std::uint64_t seed_hash(std::uint64_t seed) {
    return mix64(seed ^ 0x6a09e667f3bcc909ULL);
  }

  /// The stream base of (seed, key) — what the constructor computes. Exposed
  /// so the batched trial path can evaluate whole rows of streams in closed
  /// form, bit-identically to per-site CounterRng instances.
  static constexpr std::uint64_t stream_base(std::uint64_t seed, std::uint64_t key) {
    return seed_hash(seed) ^ mix64(key);
  }

  /// The n-th raw output (n = 1, 2, ...) of the stream with base `base`:
  /// the closed form of next().
  static constexpr std::uint64_t nth(std::uint64_t base, std::uint64_t n) {
    return mix64(base + 0x9e3779b97f4a7c15ULL * n);
  }

  /// Map a raw output to the uniform double in [0, 1) next_double() yields.
  static constexpr double to_unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t base_;
  std::uint64_t counter_;
};

}  // namespace casurf
