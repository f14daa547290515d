#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_s_(steady_now_s()) {}

double Tracer::now_s() const { return steady_now_s() - origin_s_; }

Tracer::Scope Tracer::begin(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  const double start = now_s();
  spans_.push_back(Span{std::move(name), start, start, parent});
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Scopes close in reverse order of opening, so the span is innermost.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(index_);
}

std::string Tracer::to_json() const {
  const auto self = self_times(spans_);
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                  "\"self_s\": %.9f}",
                  s.start_s, s.end_s, s.parent, self[i]);
    out += i ? ",\n {\"name\": \"" : "\n {\"name\": \"";
    out += json_escape(s.name);
    out += buf;
  }
  out += "\n]\n";
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to [lo, hi].
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::vector<double> durations_s(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_s());
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  // Percentiles in permille, so the nearest rank is exact integer math.
  static constexpr std::size_t kLadder[] = {999, 990, 950, 900, 750, 500};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const std::size_t permille : kLadder) {
    const std::size_t rank = (permille * n + 999) / 1000;
    if (rank == 0 || n - rank < 10) continue;
    return Tail{static_cast<double>(permille) / 10.0, samples[rank - 1]};
  }
  return std::nullopt;
}

}  // namespace perfbench
