#pragma once

// Deterministic, named random-number streams.
//
// Every stochastic choice in a fault-injection campaign (which bit to flip,
// which invocation to sample, how to split the training set) draws from an
// RngStream derived from (campaign seed, stream name, stream index). Two
// campaigns with the same seed therefore reproduce bit-for-bit, regardless
// of thread scheduling, because each logical actor owns its own stream.

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace fastfit {

/// 64-bit SplitMix step; used to derive stream seeds from a master seed.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Stable FNV-1a hash of a string; used to fold stream names into seeds.
/// Passing a previous result as `hash` continues it, so
/// fnv1a(b, fnv1a(a)) == fnv1a(a + b) and a key can be hashed piecewise.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = kFnv1aBasis) noexcept;

/// A self-contained deterministic random stream.
///
/// Streams are cheap to construct and intended to be created per logical
/// actor (per rank, per trial, per tree) rather than shared across threads;
/// an RngStream is not thread-safe.
class RngStream {
 public:
  /// Derives a stream from a master seed, a human-readable name, and an
  /// index (e.g. trial number). Different (name, index) pairs yield
  /// statistically independent streams.
  RngStream(std::uint64_t master_seed, std::string_view name,
            std::uint64_t index = 0);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p);

  /// Standard-normal draw.
  double normal();

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Underlying engine, for interop with <random> distributions.
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fastfit
