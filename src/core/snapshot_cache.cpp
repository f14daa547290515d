#include "core/snapshot_cache.hpp"

#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

SnapshotMode parse_snapshot_mode(const std::string& text) {
  if (text == "off") return SnapshotMode::Off;
  if (text == "auto") return SnapshotMode::Auto;
  throw ConfigError("snapshots must be one of off|auto, got '" + text + "'");
}

const char* to_string(SnapshotMode mode) noexcept {
  switch (mode) {
    case SnapshotMode::Off: return "off";
    case SnapshotMode::Auto: return "auto";
  }
  return "unknown";
}

void SnapshotCache::add_cut(std::uint32_t site_id, std::uint64_t invocation) {
  const Key key{site_id, invocation};
  if (cuts_.count(key) != 0) return;
  if (!recording_attempted_) {
    recording_attempted_ = true;
    auto recording = build_();
    if (recording && recording->replayable) recording_ = std::move(recording);
  }
  if (!recording_) return;
  auto& cut = cuts_[key];
  cut = mpi::WorldSnapshot::build(recording_, site_id, invocation);
  if (cut) ++valid_cuts_;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& builds = rec.counter("fastfit_snapshot_builds_total",
                                      "Per-(site, invocation) cut derivations");
    builds.add();
  }
}

std::shared_ptr<const mpi::WorldSnapshot> SnapshotCache::find(
    std::uint32_t site_id, std::uint64_t invocation) {
  const auto it = cuts_.find(Key{site_id, invocation});
  if (it == cuts_.end() || !it->second) return nullptr;
  clones_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void SnapshotCache::note_fallback() {
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& fallbacks =
        rec.counter("fastfit_snapshot_fallbacks_total",
                    "Replay divergences that fell back to from-scratch runs");
    fallbacks.add();
  }
}

SnapshotCache::Stats SnapshotCache::stats() const {
  Stats out;
  out.recording_builds = recording_ ? 1 : 0;
  out.snapshot_builds = cuts_.size();
  out.clones = clones_.load(std::memory_order_relaxed);
  out.hits = out.clones > valid_cuts_ ? out.clones - valid_cuts_ : 0;
  out.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  out.recording_bytes = recording_ ? recording_->payload_bytes : 0;
  return out;
}

}  // namespace fastfit::core
