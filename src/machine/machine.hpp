// The multicomputer: a set of nodes plus an execution engine.
//
// Two engines share all runtime code and differ only in how node actions are
// interleaved and how messages travel:
//
//   * SimMachine (sim_machine.hpp) — deterministic conservative simulation.
//     The node with the smallest local clock acts next; messages are
//     delivered at sender-clock + latency, FIFO per channel. Simulated time
//     (instructions / clock rate) reproduces the paper's CM-5/T3D tables.
//
//   * ThreadedMachine (threaded_machine.hpp) — one std::thread per node with
//     real concurrent inboxes and Dijkstra-style quiescence detection via a
//     global outstanding-work counter. Demonstrates the runtime is safe under
//     genuine concurrency; wall-clock time is its metric.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/schema.hpp"
#include "machine/cost_model.hpp"
#include "machine/flush_policy.hpp"
#include "machine/node.hpp"

namespace concert {

#ifdef CONCERT_VERIFY
inline constexpr bool kVerifyByDefault = true;
#else
inline constexpr bool kVerifyByDefault = false;
#endif

struct MachineConfig {
  CostModel costs = CostModel::workstation();
  ExecMode mode = ExecMode::Hybrid3;
  FallbackPolicy policy = FallbackPolicy::RevertToParallel;
  /// Selects the traced preset of every node's event ring (trace.hpp) for
  /// chrome://tracing / Perfetto export and critical-path analysis: records
  /// gain wall-clock stamps and causal flow ids. Off, the ring still keeps
  /// the newest 256 scheduler events per node for POSTMORTEM.json, reading
  /// no wall clock. Either way the ring stays outside the cost model, so
  /// simulated clocks and the paper tables are bit-identical (test-guarded).
  bool trace = false;
  /// Per-node trace ring capacity under `trace`, in records. When a node's
  /// ring fills, the oldest records are overwritten and counted as dropped
  /// (surfaced in the export metadata and NodeStats::msgs_dropped_trace) —
  /// long traced runs keep the newest window instead of growing without
  /// bound.
  std::size_t trace_capacity = std::size_t{1} << 20;
  /// concert-scope latency/queue-depth histograms: per-method invocation
  /// latency, inbox depth at drain, context lifetime, outbox flush size.
  /// One branch per hot-path site when off; steady_clock stamps when on.
  /// Recording is outside the cost model either way, so simulated clocks,
  /// message counts and the paper tables are bit-identical with it on or off.
  bool metrics = false;
  /// Ablation A2: when false, futures are modeled as separately allocated
  /// (one extra memory indirection charged on every touch and fill, as in
  /// StackThreads); when true (default, the paper's design) they live in the
  /// context.
  bool futures_in_context = true;
  /// Comms layer: when outgoing messages leave the per-destination outboxes.
  /// Immediate (default) bypasses staging and reproduces the seed behaviour
  /// bit-for-bit; SizeThreshold/FlushOnIdle coalesce messages into bundles.
  FlushPolicy flush_policy = FlushPolicy::immediate();
  std::uint64_t seed = 0x5eed;
  /// Dynamic conformance sanitizer (src/verify/): nodes record observed call
  /// edges and blocking/continuation events, checked against the registry's
  /// declared facts at quiescence. Recording is outside the cost model, so
  /// simulated clocks and message counts are identical either way. Defaults
  /// on when built with -DCONCERT_VERIFY; runtime-togglable per machine.
  bool verify = kVerifyByDefault;
  /// Threaded engine only: pin each node's thread to a CPU, with CPUs
  /// interleaved across NUMA domains (parsed from /sys on Linux) so
  /// neighbouring node ids land on different memory domains — the multi-
  /// computer-on-a-multicomputer placement. Off by default; a no-op on
  /// platforms without affinity support and in the deterministic engine.
  bool pin_threads = false;
  /// Call-site-sensitive schema specialization (concert-analyze): seal() also
  /// materializes per-edge NB-at-site annotations and the invoke fast path
  /// binds the NB convention on edges the site fixpoint proved cannot leave
  /// the caller's stack. Off by default — with it off, dispatch tables, spec
  /// spans and therefore every simulated clock are bit-identical to the seed.
  bool specialize_edges = false;
  /// Delivery-order shuffle (concert-race; deterministic engine only): when
  /// nonzero, SimNetwork picks a seeded pseudo-random message among all
  /// channel-FIFO-eligible deliveries (deliver_at within the receiver's
  /// current horizon) instead of strict (deliver_at, seq) order — the
  /// adversarial schedules a real interconnect is allowed to produce, so
  /// latent delivery-order races manifest under test. Each seed is itself
  /// fully deterministic. 0 (default) keeps the strict order, bit-identical
  /// to every pre-existing run; per-channel FIFO holds either way.
  std::uint64_t shuffle_seed = 0;
  /// Merged-wave dispatch: after an inbox drain, maximal contiguous runs of
  /// same-method non-blocking invocations execute as ONE loop over a
  /// struct-of-arrays view of the drained messages (one dispatch lookup, one
  /// receive charge, one tracer/metrics bracket per run; per-element costs
  /// collapse to CostModel::wave_member). Delivery order inside a run is the
  /// drain order, so per-channel FIFO and per-object order are untouched.
  /// Off by default — with it off, the merged path is never entered and every
  /// simulated clock, message count and paper table is bit-identical to the
  /// per-message runtime.
  bool merge_waves = false;
  /// Stall watchdog (concert-progress): when nonzero, a run that makes no
  /// scheduling progress for this many milliseconds panics with a full
  /// stall_report() — per-node queue depths, suspended-context tables and the
  /// vclock frontier — instead of hanging. The threaded engine measures
  /// wall time since the last work-retire/create; the deterministic engine
  /// treats it as a per-run wall-clock budget (its scheduler cannot stall
  /// while work remains, but a forwarding livelock keeps it busy forever).
  /// 0 (default) disables the watchdog; every pre-existing run, clock and
  /// paper table is bit-identical with it off.
  std::uint64_t stall_timeout = 0;
  /// Per-call-site profiler (concert-insight): per declared call edge
  /// (caller method -> callee method) invocation / NB-hit / fallback /
  /// divert counters and log2 stack-latency histograms, recorded on the
  /// invoke and fallback paths. Off by default — one predictable branch per
  /// site when off, steady_clock stamps when on; recording is outside the
  /// cost model, so simulated clocks are bit-identical either way.
  /// Exported through MetricsRegistry and write_sites_json (SITES_*.json).
  bool profile_sites = false;
  /// Where the stall watchdog and the engines' panic paths write the
  /// machine-readable postmortem (event rings, queue depths, suspended-
  /// context chains, vclock frontier) before rethrowing. One dump per run;
  /// empty disables the file without affecting the free-text stall_report()
  /// carried in the exception message. Rendered by `concert_trace postmortem`.
  std::string postmortem_path = "POSTMORTEM.json";
};

class Machine {
 public:
  Machine(std::size_t nodes, MachineConfig config);
  virtual ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id) {
    CONCERT_CHECK(id < nodes_.size(), "bad node id " << id);
    return *nodes_[id];
  }
  const Node& node(NodeId id) const {
    CONCERT_CHECK(id < nodes_.size(), "bad node id " << id);
    return *nodes_[id];
  }
  const MethodRegistry& registry() const { return registry_; }
  const MachineConfig& config() const { return config_; }
  const CostModel& costs() const { return config_.costs; }
  MethodRegistry& registry() { return registry_; }

  /// Routes a message from a node. Called by Node::send after the sender paid
  /// its overhead. Engine-specific (network timestamping vs inbox push).
  virtual void route(Node& from, Message msg) = 0;

  /// Runs until no node has work and no message is in flight.
  virtual void run_until_quiescent() = 0;

  /// Work-accounting hook for quiescence detection: invoked when a context is
  /// enqueued. (Message sends are accounted inside route().) The deterministic
  /// engine tracks work structurally and ignores these.
  virtual void on_work_created() {}
  virtual void on_work_retired() {}

  /// Convenience driver: injects an invocation of `method` on `target`
  /// (executed on `where`) with a continuation to a fresh root future, runs to
  /// quiescence, and returns the root value (Nil if the program was reactive
  /// and never replied).
  Value run_main(NodeId where, MethodId method, GlobalRef target, std::vector<Value> args);

  /// Sum of all nodes' counters.
  NodeStats total_stats() const;
  /// Messages staged in outboxes but not yet flushed (0 under Immediate and
  /// after any quiescent run). Only meaningful when the machine is not
  /// actively running.
  std::size_t buffered_msgs() const;
  /// Makespan: the largest node clock, in instructions.
  std::uint64_t max_clock() const;
  /// Makespan in simulated seconds under this machine's cost model.
  double elapsed_seconds() const { return config_.costs.seconds(max_clock()); }

  /// Asserts no contexts leaked (test support): every arena's live count is 0.
  std::size_t live_contexts() const;

  /// Runs the conformance sanitizer (panics on violation) when
  /// MachineConfig::verify is set; no-op otherwise. Engines call this once
  /// they reach quiescence.
  void verify_at_quiescence() const;

  /// Stall-watchdog dump (concert-progress): per-node ready/outbox/arena
  /// depths, each verifier's suspended-context table (method names + trace
  /// flow ids) and vclock frontier. Engines print this via CONCERT_CHECK when
  /// MachineConfig::stall_timeout expires; callable any time the nodes are
  /// not concurrently mutating (tests call it directly).
  std::string stall_report() const;

  // ---- concert-insight (postmortems) ----
  /// Serializes the machine-readable postmortem: per-node queue depths,
  /// the newest event-ring records, health aggregates, suspended-context chains and
  /// vclock frontiers (machine/postmortem.cpp). Callable any time the nodes
  /// are not concurrently mutating.
  void write_postmortem(std::ostream& os, const std::string& reason) const;
  /// Writes the postmortem to MachineConfig::postmortem_path — at most once
  /// per run (engines re-arm at run start) and a no-op when the path is
  /// empty. Returns the path written, or "" when nothing was written.
  std::string dump_postmortem(const std::string& reason);

  // ---- concert-scope (tracing / metrics) ----
  /// Draws a machine-unique causal id (> 0) for trace flow events: assigned
  /// to a message at send time and re-recorded at receive, or to a suspend
  /// and re-recorded at resume. Relaxed atomic — any thread may draw.
  std::uint64_t next_trace_cause() {
    return trace_cause_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Shared wall-clock origin for every node's trace/metrics timestamps
  /// (stamped at machine construction), so cross-node flows line up.
  Tracer::Clock::time_point trace_epoch() const { return trace_epoch_; }
  /// Nanoseconds of steady_clock elapsed since the trace epoch.
  std::uint64_t wall_now_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          Tracer::Clock::now() - trace_epoch_)
                                          .count());
  }

 protected:
  /// Quiescence-time memory housekeeping on every node (arena freelist
  /// canonicalization, payload-pool trim). Engines call it once the system is
  /// idle; it charges nothing, so simulated clocks are unaffected.
  void quiesce_memory();

  /// Re-arms the once-per-run postmortem dump; engines call it at run start.
  void arm_postmortem() { postmortem_dumped_ = false; }

  /// Takes a queue-depth health sample on every node. The deterministic
  /// engine calls this on its watchdog cadence (single-threaded, outside the
  /// cost model); the threaded engine samples per node from the owning
  /// thread instead and never calls this.
  void sample_health_all();

  MachineConfig config_;
  MethodRegistry registry_;
  std::vector<std::unique_ptr<Node>> nodes_;

 private:
  Tracer::Clock::time_point trace_epoch_{};
  std::atomic<std::uint64_t> trace_cause_{0};
  bool postmortem_dumped_ = false;
};

class MetricsRegistry;

/// Fills `out` with the machine's counters and histograms: every NodeStats
/// field summed across nodes, plus (when MachineConfig::metrics was on) the
/// merged invocation-latency, per-method latency, inbox-depth,
/// context-lifetime and flush-size histograms, plus (once an engine has
/// taken health samples) merged queue-depth health histograms and a
/// load-skew gauge, plus (when MachineConfig::profile_sites was on)
/// per-call-edge counters and latency histograms. Call after quiescence.
void export_metrics(const Machine& machine, MetricsRegistry& out);

/// Dumps the per-call-site profile (SITES_*.json): every (caller, callee)
/// edge merged across nodes with invocation / NB-hit / fallback / divert
/// counts, latency quantiles and the NodeStats totals the counts reconcile
/// against. Empty `sites` array unless MachineConfig::profile_sites was on.
void write_sites_json(const Machine& machine, std::ostream& os);

}  // namespace concert
