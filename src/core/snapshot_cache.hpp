#pragma once

// Campaign-side snapshot management (tentpole of the prefix-replay work):
//
//  * SnapshotMode — the --snapshots off|auto knob. `auto` (default)
//    replays recorded prefixes and reruns a trial from scratch when its
//    replay diverges; `off` runs every trial from scratch.
//
//  * SnapshotCache — one table of replay cuts per campaign, keyed by
//    (site, invocation). Campaign::measure_impl fills it before any trial
//    of a batch starts: the first batch with a replayable point builds
//    the fault-free recording, and every batch derives the cuts its
//    points need. Trials then only read the table, without a lock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "minimpi/snapshot.hpp"

namespace fastfit::core {

enum class SnapshotMode : std::uint8_t { Off, Auto };

/// Parses "off" / "auto" (throws ConfigError otherwise).
SnapshotMode parse_snapshot_mode(const std::string& text);
const char* to_string(SnapshotMode mode) noexcept;

/// The per-campaign table of replay cuts. add_cut() writes it and must not
/// run concurrently with anything else on the table; Campaign calls it only
/// before a batch's trials start, and refuses overlapping measures. find()
/// and note_fallback() are safe from any number of trial threads at once.
class SnapshotCache {
 public:
  using RecordingBuilder =
      std::function<std::shared_ptr<const mpi::WorldRecording>()>;

  /// `build` runs the fault-free recording run; nullptr means it failed.
  explicit SnapshotCache(RecordingBuilder build) : build_(std::move(build)) {}

  /// Derives and stores the cut for (site_id, invocation) unless the table
  /// already has it. The first call builds the recording; a recording that
  /// fails or is not replayable is not retried, and the table then stays
  /// empty. A cut that cannot be derived (WorldSnapshot::build returns
  /// nullptr) is stored as a null entry.
  void add_cut(std::uint32_t site_id, std::uint64_t invocation);

  /// The cut for (site_id, invocation), or nullptr when it is null or was
  /// never added; the caller then runs the trial from scratch. Counts a
  /// clone for every cut it hands out.
  std::shared_ptr<const mpi::WorldSnapshot> find(std::uint32_t site_id,
                                                 std::uint64_t invocation);

  /// Counts one replay divergence that fell back to a from-scratch run.
  void note_fallback();

  struct Stats {
    std::uint64_t recording_builds = 0;  ///< recordings kept: 0 or 1
    std::uint64_t snapshot_builds = 0;   ///< cuts derived, null ones included
    /// Clones beyond the first of each valid cut: the trials that reused a
    /// cut another trial had already cloned.
    std::uint64_t hits = 0;
    std::uint64_t clones = 0;     ///< trials handed a cut by find()
    std::uint64_t fallbacks = 0;  ///< replays that diverged and reran
    std::size_t recording_bytes = 0;  ///< recording payload (post-dedup)
  };
  Stats stats() const;

 private:
  using Key = std::pair<std::uint32_t, std::uint64_t>;

  RecordingBuilder build_;
  bool recording_attempted_ = false;
  std::shared_ptr<const mpi::WorldRecording> recording_;
  std::map<Key, std::shared_ptr<const mpi::WorldSnapshot>> cuts_;
  std::uint64_t valid_cuts_ = 0;
  std::atomic<std::uint64_t> clones_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

/// Empty: each campaign's profiling run is its one fault-free run, and
/// nothing is memoized across campaigns. Kept, with a no-op clear(),
/// because perfbench/refstudy.cpp still calls clear().
class GoldenCache {
 public:
  static GoldenCache& instance() {
    static GoldenCache cache;
    return cache;
  }
  void clear() {}
};

}  // namespace fastfit::core
