#include "minimpi/memory.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace fastfit::mpi {

void MemoryRegistry::add(const void* ptr, std::size_t bytes) {
  if (ptr == nullptr && bytes > 0) {
    throw InternalError("MemoryRegistry::add: null region");
  }
  if (bytes == 0) return;  // nothing to protect
  const auto base = reinterpret_cast<std::uintptr_t>(ptr);
  // Reject overlap with the predecessor and successor regions.
  auto next = regions_.lower_bound(base);
  if (next != regions_.end() && base + bytes > next->first) {
    throw InternalError("MemoryRegistry::add: overlapping region");
  }
  if (next != regions_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second > base) {
      throw InternalError("MemoryRegistry::add: overlapping region");
    }
  }
  regions_.emplace(base, bytes);
}

void MemoryRegistry::remove(const void* ptr) {
  const auto base = reinterpret_cast<std::uintptr_t>(ptr);
  if (regions_.erase(base) == 0) {
    throw InternalError("MemoryRegistry::remove: unknown region");
  }
}

bool MemoryRegistry::covers(const void* ptr, std::size_t bytes) const noexcept {
  if (bytes == 0) return true;
  if (ptr == nullptr) return false;
  const auto base = reinterpret_cast<std::uintptr_t>(ptr);
  auto next = regions_.upper_bound(base);
  if (next == regions_.begin()) return false;
  const auto& [region_base, region_len] = *std::prev(next);
  return base >= region_base && base + bytes <= region_base + region_len;
}

void MemoryRegistry::check(const void* ptr, std::size_t bytes,
                           const char* what) const {
  if (!covers(ptr, bytes)) {
    // The address stays in the exception's own field; the message reaches
    // journals and autopsies, which must not vary with heap layout.
    std::ostringstream msg;
    msg << what << " of " << bytes << " bytes leaves every registered region";
    throw SimSegFault(reinterpret_cast<std::uintptr_t>(ptr), bytes, msg.str());
  }
}

namespace {

std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

ChunkStore::Chunk ChunkStore::intern(const void* data, std::size_t bytes) {
  const std::uint64_t hash = fnv1a_bytes(data, bytes);
  auto& bucket = buckets_[hash];
  const auto* p = static_cast<const std::byte*>(data);
  for (const auto& chunk : bucket) {
    if (chunk->size() == bytes &&
        std::equal(chunk->begin(), chunk->end(), p)) {
      return chunk;
    }
  }
  auto chunk = std::make_shared<const std::vector<std::byte>>(p, p + bytes);
  bucket.push_back(chunk);
  bytes_ += bytes;
  ++chunks_;
  return chunk;
}

}  // namespace fastfit::mpi
