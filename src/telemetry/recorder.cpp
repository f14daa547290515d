#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cmath>

namespace fastfit::telemetry {

const char* to_string(Track track) noexcept {
  switch (track) {
    case Track::Main: return "main";
    case Track::Executor: return "executor";
    case Track::Rank: return "rank";
    case Track::Monitor: return "monitor";
    case Track::MlLoop: return "ml";
    case Track::Journal: return "journal";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Metrics instruments

void Counter::add(std::uint64_t n) noexcept {
  if (!Recorder::instance().enabled()) return;
  value_.fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t v) noexcept {
  if (!Recorder::instance().enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t delta) noexcept {
  if (!Recorder::instance().enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

namespace {
// log10(us) range: 1 us .. 10 s, 5 bins per decade.
constexpr double kHistLo = 0.0;
constexpr double kHistHi = 7.0;
constexpr std::size_t kHistBins = 35;
}  // namespace

LatencyHistogram::LatencyHistogram(std::string name, std::string help)
    : name_(std::move(name)), help_(std::move(help)),
      hist_(kHistLo, kHistHi, kHistBins) {}

void LatencyHistogram::observe_us(double us) noexcept {
  if (!Recorder::instance().enabled()) return;
  const double clamped = us < 1.0 ? 1.0 : us;
  std::lock_guard lock(mutex_);
  hist_.add(std::log10(clamped));
  sum_us_ += us;
  ++count_;
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mutex_);
  snap.count = count_;
  snap.sum_seconds = sum_us_ / 1e6;
  snap.buckets.reserve(hist_.bins());
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < hist_.bins(); ++b) {
    cumulative += hist_.count(b);
    snap.buckets.emplace_back(std::pow(10.0, hist_.bin_hi(b)) / 1e6,
                              cumulative);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot queries

std::uint64_t MetricsSnapshot::counter_value(std::string_view name,
                                             std::string_view labels) const {
  for (const auto& c : counters) {
    if (c.name == name && c.labels == labels) return c.value;
  }
  return 0;
}

std::uint64_t MetricsSnapshot::counter_sum(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& c : counters) {
    if (c.name == name) sum += c.value;
  }
  return sum;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Recorder

/// Per-thread event buffer. The owning thread appends under `mutex`
/// (uncontended except against a concurrent drain); the registry keeps a
/// shared_ptr so a drain can walk buffers of threads that are mid-exit.
struct Recorder::ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
};

/// Thread-local handle: registers the buffer on first use and retires it
/// (moving any remaining events into the recorder) at thread exit, so
/// short-lived threads do not accumulate dead buffers.
struct Recorder::BufferHandle {
  std::shared_ptr<ThreadBuffer> buffer;
  ThreadInfo info;

  ~BufferHandle() {
    if (!buffer) return;
    auto& rec = Recorder::instance();
    std::vector<Event> leftover;
    {
      std::lock_guard lock(buffer->mutex);
      leftover = std::move(buffer->events);
    }
    std::lock_guard lock(rec.registry_mutex_);
    for (auto& event : leftover) rec.retired_.push_back(std::move(event));
    auto& buffers = rec.buffers_;
    buffers.erase(std::remove(buffers.begin(), buffers.end(), buffer),
                  buffers.end());
  }
};

Recorder::BufferHandle& Recorder::handle() {
  thread_local BufferHandle h;
  return h;
}

Recorder::Recorder() : epoch_(std::chrono::steady_clock::now()) {}

Recorder& Recorder::instance() {
  // Leaked: instrumentation may fire from thread-exit paths and atexit
  // handlers after static destruction would have run.
  static Recorder* recorder = new Recorder();
  return *recorder;
}

std::int64_t Recorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Recorder::ThreadBuffer& Recorder::local_buffer() {
  if (!handle().buffer) {
    handle().buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard lock(registry_mutex_);
    buffers_.push_back(handle().buffer);
  }
  return *handle().buffer;
}

void Recorder::record(Event event) {
  if (!enabled()) return;
  if (buffered_.fetch_add(1, std::memory_order_relaxed) >=
      kMaxBufferedEvents) {
    buffered_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& buffer = local_buffer();
  std::lock_guard lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

void Recorder::instant(const char* name, Track track, int index,
                       std::string args) {
  if (!enabled()) return;
  Event event;
  event.name = name;
  event.start_us = now_us();
  event.dur_us = -1;
  event.track = track;
  event.index = index;
  event.args = std::move(args);
  record(std::move(event));
}

void Recorder::bind_thread(Track track, int index, std::string label) {
  handle().info = ThreadInfo{track, index, label};
  auto& rec = instance();
  std::lock_guard lock(rec.registry_mutex_);
  for (auto& known : rec.bound_) {
    if (known.track == track && known.index == index) {
      known.label = std::move(label);
      return;
    }
  }
  rec.bound_.push_back(ThreadInfo{track, index, std::move(label)});
}

ThreadInfo Recorder::thread_info() { return handle().info; }

Counter& Recorder::counter(std::string_view name, std::string_view help,
                           std::string_view labels) {
  std::string key = std::string(name) + '{' + std::string(labels) + '}';
  std::lock_guard lock(metrics_mutex_);
  if (auto it = counter_index_.find(key); it != counter_index_.end()) {
    return *counters_[it->second];
  }
  counters_.emplace_back(new Counter(std::string(name), std::string(help),
                                     std::string(labels)));
  counter_index_.emplace(std::move(key), counters_.size() - 1);
  return *counters_.back();
}

Gauge& Recorder::gauge(std::string_view name, std::string_view help,
                       std::string_view labels) {
  std::string key = std::string(name) + '{' + std::string(labels) + '}';
  std::lock_guard lock(metrics_mutex_);
  if (auto it = gauge_index_.find(key); it != gauge_index_.end()) {
    return *gauges_[it->second];
  }
  gauges_.emplace_back(new Gauge(std::string(name), std::string(help),
                                 std::string(labels)));
  gauge_index_.emplace(std::move(key), gauges_.size() - 1);
  return *gauges_.back();
}

LatencyHistogram& Recorder::latency(std::string_view name,
                                    std::string_view help) {
  std::string key(name);
  std::lock_guard lock(metrics_mutex_);
  if (auto it = histogram_index_.find(key); it != histogram_index_.end()) {
    return *histograms_[it->second];
  }
  histograms_.emplace_back(
      new LatencyHistogram(std::string(name), std::string(help)));
  histogram_index_.emplace(std::move(key), histograms_.size() - 1);
  return *histograms_.back();
}

std::vector<Event> Recorder::drain_events() {
  std::vector<Event> events;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard lock(registry_mutex_);
    events = std::move(retired_);
    retired_.clear();
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard lock(buffer->mutex);
    for (auto& event : buffer->events) events.push_back(std::move(event));
    buffer->events.clear();
  }
  buffered_.fetch_sub(std::min(events.size(),
                               buffered_.load(std::memory_order_relaxed)),
                      std::memory_order_relaxed);
  // A span is recorded when it closes, after every span it encloses, so
  // among spans with identical [start, end] intervals the later-recorded
  // one is the parent: reverse before the stable sort to put it first.
  std::reverse(events.begin(), events.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.dur_us > b.dur_us;
                   });
  return events;
}

std::vector<ThreadInfo> Recorder::bound_threads() const {
  std::lock_guard lock(registry_mutex_);
  return bound_;
}

MetricsSnapshot Recorder::metrics() const {
  MetricsSnapshot snap;
  std::lock_guard lock(metrics_mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    snap.counters.push_back({c->name_, c->help_, c->labels_, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    snap.gauges.push_back({g->name_, g->help_, g->labels_, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    snap.histograms.push_back({h->name_, h->help_, h->snapshot()});
  }
  // Deterministic exposition order regardless of registration races.
  const auto by_series = [](const auto& a, const auto& b) {
    return a.name != b.name ? a.name < b.name : a.labels < b.labels;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_series);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_series);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  snap.dropped_events = dropped_events();
  return snap;
}

void Recorder::reset() {
  (void)drain_events();
  {
    std::lock_guard lock(registry_mutex_);
    retired_.clear();
  }
  buffered_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  std::lock_guard lock(metrics_mutex_);
  for (auto& c : counters_) c->value_.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g->value_.store(0, std::memory_order_relaxed);
  for (auto& h : histograms_) {
    std::lock_guard hist_lock(h->mutex_);
    h->hist_ = stats::Histogram(kHistLo, kHistHi, kHistBins);
    h->sum_us_ = 0.0;
    h->count_ = 0;
  }
}

// ---------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  auto& rec = Recorder::instance();
  if (!rec.enabled()) return;
  const auto info = Recorder::thread_info();
  track_ = info.track;
  index_ = info.index;
  start_ns_ = rec.now_ns();
  active_ = true;
}

ScopedSpan::ScopedSpan(const char* name, Track track, int index)
    : name_(name), track_(track), index_(index) {
  auto& rec = Recorder::instance();
  if (!rec.enabled()) return;
  if (track == Track::Rank) {
    const auto info = Recorder::thread_info();
    if (info.track == Track::Executor) world_lane_ = info.index;
  }
  start_ns_ = rec.now_ns();
  active_ = true;
}

void ScopedSpan::arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  if (!args_.empty()) args_ += "; ";
  args_.append(key);
  args_ += '=';
  args_.append(value);
}

void ScopedSpan::finish() {
  if (!active_) return;
  active_ = false;
  auto& rec = Recorder::instance();
  Event event;
  event.name = name_;
  const std::int64_t end_ns = rec.now_ns();
  event.start_us = start_ns_ / 1000;
  event.dur_us = end_ns / 1000 - event.start_us;
  event.track = track_;
  event.index = index_;
  event.args = std::move(args_);
  event.world_lane = world_lane_;
  rec.record(std::move(event));
}

}  // namespace fastfit::telemetry
