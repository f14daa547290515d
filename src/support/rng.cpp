#include "support/rng.hpp"

#include <algorithm>
#include <cassert>

#include "support/error.hpp"

namespace fastfit {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) noexcept {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

RngStream::RngStream(std::uint64_t master_seed, std::string_view name,
                     std::uint64_t index) {
  std::uint64_t state = master_seed ^ fnv1a(name);
  state ^= 0x6a09e667f3bcc909ULL * (index + 1);
  const std::uint64_t a = splitmix64(state);
  const std::uint64_t b = splitmix64(state);
  std::seed_seq seq{static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(a >> 32),
                    static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32)};
  engine_.seed(seq);
}

std::uint64_t RngStream::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw InternalError("RngStream::uniform_u64: lo > hi");
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

std::size_t RngStream::index(std::size_t n) {
  if (n == 0) throw InternalError("RngStream::index: empty range");
  return static_cast<std::size_t>(uniform_u64(0, n - 1));
}

double RngStream::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

bool RngStream::bernoulli(double p) { return uniform() < p; }

double RngStream::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

std::vector<std::size_t> RngStream::sample_without_replacement(std::size_t n,
                                                               std::size_t k) {
  if (k > n) throw InternalError("sample_without_replacement: k > n");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: only the first k positions need to be drawn.
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + index(n - i)]);
  }
  all.resize(k);
  return all;
}

}  // namespace fastfit
