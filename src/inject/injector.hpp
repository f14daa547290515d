#pragma once

// The fault-injection tool: a ToolHooks implementation armed with one
// FaultSpec per trial. The spec's *trigger* decides when the fault fires —
// the paper's exact (rank, site, invocation) point, a Bernoulli draw per
// call, the Nth call, or a uniformly chosen call from a window — and its
// *manifestation* decides what happens: a parameter mutation at the call
// record (the PMPI-shim deployment of the paper's Fig 5), an in-flight
// message corruption / delay / drop at the transport layer, or fail-stop
// rank death. Every untargeted call passes through untouched.

#include <atomic>
#include <cstdint>
#include <functional>

#include "inject/fault_spec.hpp"
#include "minimpi/hooks.hpp"
#include "support/rng.hpp"

namespace fastfit::inject {

class Injector final : public mpi::ToolHooks {
 public:
  /// `seed` is the campaign master seed. Manifestation randomness (which
  /// bit, which byte) is drawn from the ("bitflip", spec.stream_index())
  /// stream and trigger randomness (Bernoulli draws, the uniform call
  /// choice) from the disjoint ("trigger", spec.stream_index()) stream, so
  /// trial t of a point is reproducible in isolation, independent of
  /// campaign execution order, and byte-identical to pre-v2 behaviour for
  /// the default exact-point trigger.
  Injector(FaultSpec spec, std::uint64_t seed);

  /// Called once, on the injected rank's fiber, when an exact-point
  /// trigger fires and before the fault manifests: the end of the trial's
  /// fault-free prefix, which no trial-dependent state has touched. Gets
  /// the spec's trial and returns the trial to go on with; the injector
  /// rebinds its trial-dependent state (spec().trial and the trigger
  /// stream) to it. Process isolation forks one child per trial here.
  using CutHook = std::function<std::uint64_t(std::uint64_t trial)>;

  /// Installs the cut hook. Ignored unless the trigger is ExactPoint: any
  /// other trigger may fire at a trial-dependent call.
  void set_cut_hook(CutHook hook);

  void on_enter(mpi::CollectiveCall& call, mpi::Mpi& mpi) override;
  void on_exit(const mpi::CollectiveCall& call, mpi::Mpi& mpi) override;

  /// Transport interception for the message-fault manifestations: once the
  /// trigger has armed the fault, the injected rank's next outgoing
  /// message is corrupted, held, or dropped.
  mpi::SendAction on_transport_send(int source_world, int dest_world,
                                    std::uint64_t tag,
                                    std::vector<std::byte>& payload) override;

  /// True once the trigger fired and the manifestation was applied.
  bool fired() const noexcept { return fired_.load(); }

  /// True if the fault fired but had no corruptible substance (e.g.
  /// zero-length buffer, stuck-at bit already at its stuck value): the
  /// trial ran effectively fault-free.
  bool fizzled() const noexcept { return fizzled_.load(); }

  const FaultSpec& spec() const noexcept { return spec_; }

 private:
  /// Trigger axis: does this call (on the injected rank) fire the fault?
  /// Only called on the injected rank's own thread; the per-call counters
  /// and trigger RNG are therefore single-threaded.
  bool trigger_fires(const mpi::CollectiveCall& call);

  /// Manifestation axis, applied to the firing call.
  void manifest(mpi::CollectiveCall& call, mpi::Mpi& mpi);

  FaultSpec spec_;
  std::uint64_t seed_;
  CutHook cut_hook_;
  std::atomic<bool> fired_{false};
  std::atomic<bool> fizzled_{false};
  /// A message-fault manifestation armed by the trigger; consumed by the
  /// first subsequent on_transport_send from the injected rank.
  std::atomic<bool> transport_armed_{false};
  RngStream trigger_rng_;
  std::uint64_t calls_seen_ = 0;  ///< injected rank's collective calls
  std::uint64_t fire_at_ = 0;     ///< UniformOverRun: chosen call ordinal
  /// A repeating (duty-cycle) fault is fizzled only while *every* fire so
  /// far was a no-op; the first effective mutation latches this true.
  /// Rank-thread-only, like the counters above.
  bool manifested_ = false;
};

}  // namespace fastfit::inject
