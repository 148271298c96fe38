// Per-call-site profiler (concert-insight).
//
// ROADMAP open item 3 (profile-guided adaptivity) needs a signal the
// aggregate NodeStats counters cannot give: *which* call edge falls back.
// `stack_calls`/`fallbacks` say a SOR run fell back more often; they
// cannot say whether the fallbacks live at relax→get_north or
// relax→reduce. The SiteProfiler keys every stack speculation by its
// declared call edge — (caller method, callee method) — and records
// invocations, NB-hit/fallback counts, divert counts, and log2 wall-latency
// histograms for the hit and fallback paths.
//
// Cost discipline matches NodeMetrics: off by default
// (MachineConfig::profile_sites), one predictable branch per site when off,
// and recording happens outside the simulated cost model, so enabling the
// profiler never changes clocks or paper tables (test-guarded).
//
// Two paths have no declared caller and record under reserved pseudo-callers:
//   - kInvalidMethod ("(message)"): the wrapper path — a method invoked by an
//     arriving message runs with no stack caller (core/wrapper.cpp), and
//     merged waves execute whole batches of such invocations (node.cpp).
// Accounting invariants (cross-checked against NodeStats in tests):
//   sum(attempts)            == stats.stack_calls
//   sum(nb_hits)             == stats.stack_completions
//   sum(invokes)             == stats.local_invokes + stats.remote_invokes
//   sum(remote)              == stats.remote_invokes
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.hpp"
#include "support/histogram.hpp"

namespace concert {

/// Counters + latency histograms for one call edge (caller -> callee).
struct SiteRecord {
  MethodId callee = kInvalidMethod;
  /// Invocations issued at this edge — mirrors local_invokes/remote_invokes
  /// accounting exactly (message arrivals whose sender already counted the
  /// invocation are NOT re-counted here).
  std::uint64_t invokes = 0;
  /// Of the invokes, how many targeted a remote object (pre-divert verdict).
  std::uint64_t remote = 0;
  /// Stack speculations begun (mirrors stats.stack_calls).
  std::uint64_t attempts = 0;
  /// Speculations that completed on the stack (mirrors stack_completions).
  std::uint64_t nb_hits = 0;
  /// Speculations that unwound into a heap continuation. Note this counts
  /// per *attempt*, not per materialized frame like stats.fallbacks — a CP
  /// callee that falls back lazily still counts here at its call site.
  std::uint64_t fallbacks = 0;
  /// Invocations sent straight to the heap or a remote node with no stack
  /// attempt (remote target, locked target, ParallelOnly schema, injection).
  std::uint64_t diverts = 0;
  Histogram stack_ns;     ///< wall latency of attempts that hit (ns)
  Histogram fallback_ns;  ///< wall latency of attempts that fell back (ns)

  void merge(const SiteRecord& o) {
    invokes += o.invokes;
    remote += o.remote;
    attempts += o.attempts;
    nb_hits += o.nb_hits;
    fallbacks += o.fallbacks;
    diverts += o.diverts;
    stack_ns += o.stack_ns;
    fallback_ns += o.fallback_ns;
  }
};

/// Per-node site table. Caller-indexed vector of short callee lists: method
/// ids are small and dense (registry order), per-caller fan-out is tiny, so
/// a linear scan beats hashing on the hot path. Single-writer per node; read
/// only after quiescence.
class SiteProfiler {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Slot 0 is the "(message)" pseudo-caller (caller == kInvalidMethod);
  /// declared callers live at caller + 1.
  SiteRecord& at(MethodId caller, MethodId callee) {
    const std::size_t c = caller == kInvalidMethod ? 0 : static_cast<std::size_t>(caller) + 1;
    if (c >= by_caller_.size()) by_caller_.resize(c + 1);
    std::vector<SiteRecord>& sites = by_caller_[c];
    for (SiteRecord& r : sites)
      if (r.callee == callee) return r;
    sites.emplace_back();
    sites.back().callee = callee;
    return sites.back();
  }

  const std::vector<std::vector<SiteRecord>>& by_caller() const { return by_caller_; }

 private:
  bool enabled_ = false;
  std::vector<std::vector<SiteRecord>> by_caller_;
};

}  // namespace concert
