#pragma once

// In-memory span tracer for the reference-study benchmark, plus the two
// statistics the benchmark reports from its samples.
//
// Spans are recorded by the benchmark around its own calls into the
// fastfit libraries (never inside them), kept in memory, and written out
// when the run ends. Each span has a name, a start, an end and a parent;
// a span's self time is its duration minus the part of its interval that
// its children cover.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;  ///< index of the parent span, -1 for a root

  double duration_s() const { return end_s - start_s; }
};

/// Records nested spans on one thread. Disabled tracers record nothing,
/// so the timed run and the traced run share their code.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Closes the span opened by begin() when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Opens a span whose parent is the innermost open span.
  Scope begin(std::string name);

  const std::vector<Span>& spans() const { return spans_; }

  /// The spans as a JSON array (name, start, end, parent, self time).
  std::string to_json() const;

 private:
  void end(int index);
  double now_s() const;

  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval. Children that
/// overlap one another are counted once.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Durations of every span named `name`, in seconds, in record order.
std::vector<double> durations_s(const std::vector<Span>& spans,
                                const std::string& name);

double median(std::vector<double> values);

struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;
};

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 that has
/// at least ten samples beyond it (nearest-rank definition: the p-th
/// percentile is the ceil(p/100 * n)-th smallest sample, and the samples
/// beyond it are the n - ceil(p/100 * n) larger-ranked ones). Empty when
/// even the median has fewer than ten samples beyond it (n < 20).
std::optional<Tail> tail_percentile(std::vector<double> samples);

}  // namespace perfbench
