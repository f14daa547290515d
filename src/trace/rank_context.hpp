#pragma once

// Per-rank application context: the state FastFIT's features are read
// from. Workloads annotate their structure through this object — function
// scopes feed the shadow stack and call graph, phases mark the paper's
// Phase feature (init / input / compute / end), and ErrorHandlingScope
// marks the paper's ErrHal feature (LAMMPS uses >40% of its allreduces in
// error-handling code).

#include <memory>
#include <string_view>
#include <vector>

#include "trace/call_graph.hpp"
#include "trace/comm_trace.hpp"
#include "trace/shadow_stack.hpp"

namespace fastfit::trace {

/// The paper's execution-phase feature.
enum class ExecPhase : std::uint8_t { Init = 0, Input = 1, Compute = 2, End = 3 };

inline constexpr std::size_t kNumPhases = 4;

const char* to_string(ExecPhase phase) noexcept;

class RankContext {
 public:
  /// Enters an application function: records the call-graph edge (when
  /// recording is on) and pushes the shadow frame. Prefer FunctionScope.
  void enter_function(std::string_view name) {
    if (record_call_graph_) {
      graph_.add_call(std::string(stack_.innermost()), std::string(name));
    }
    stack_.enter(name);
  }

  /// Call-graph recording (on by default). Only the profiling run reads
  /// the graph, so the other runs of a campaign turn it off.
  void set_record_call_graph(bool on) noexcept { record_call_graph_ = on; }

  void leave_function() { stack_.leave(); }

  const ShadowStack& stack() const noexcept { return stack_; }
  CallGraph& graph() noexcept { return graph_; }
  const CallGraph& graph() const noexcept { return graph_; }
  CommTrace& comm_trace() noexcept { return comm_trace_; }
  const CommTrace& comm_trace() const noexcept { return comm_trace_; }

  void set_phase(ExecPhase phase) noexcept { phase_ = phase; }
  ExecPhase phase() const noexcept { return phase_; }

  void push_error_handler() noexcept { ++errhal_depth_; }
  void pop_error_handler() noexcept { --errhal_depth_; }
  bool in_error_handler() const noexcept { return errhal_depth_ > 0; }

 private:
  ShadowStack stack_;
  CallGraph graph_;
  CommTrace comm_trace_;
  ExecPhase phase_ = ExecPhase::Init;
  int errhal_depth_ = 0;
  bool record_call_graph_ = true;
};

/// RAII function frame that maintains both the shadow stack and the call
/// graph.
class FunctionScope {
 public:
  FunctionScope(RankContext& ctx, std::string_view name) : ctx_(&ctx) {
    ctx_->enter_function(name);
  }
  ~FunctionScope() { ctx_->leave_function(); }
  FunctionScope(const FunctionScope&) = delete;
  FunctionScope& operator=(const FunctionScope&) = delete;

 private:
  RankContext* ctx_;
};

/// RAII marker for error-handling code regions (the ErrHal feature).
class ErrorHandlingScope {
 public:
  explicit ErrorHandlingScope(RankContext& ctx) : ctx_(&ctx) {
    ctx_->push_error_handler();
  }
  ~ErrorHandlingScope() { ctx_->pop_error_handler(); }
  ErrorHandlingScope(const ErrorHandlingScope&) = delete;
  ErrorHandlingScope& operator=(const ErrorHandlingScope&) = delete;

 private:
  RankContext* ctx_;
};

/// One RankContext per world rank, shared between the workload (writer)
/// and the tool hooks (readers). Indexing is wait-free; each rank touches
/// only its own slot. `record_call_graph` = false skips the call-graph
/// edges, which only the profiling run reads.
class ContextRegistry {
 public:
  explicit ContextRegistry(int nranks, bool record_call_graph = true)
      : contexts_(static_cast<std::size_t>(nranks)) {
    for (auto& c : contexts_) {
      c = std::make_unique<RankContext>();
      c->set_record_call_graph(record_call_graph);
    }
  }

  RankContext& of(int rank) {
    return *contexts_.at(static_cast<std::size_t>(rank));
  }
  const RankContext& of(int rank) const {
    return *contexts_.at(static_cast<std::size_t>(rank));
  }
  int size() const noexcept { return static_cast<int>(contexts_.size()); }

 private:
  std::vector<std::unique_ptr<RankContext>> contexts_;
};

}  // namespace fastfit::trace
