// Runtime event counters and simple summary statistics.
//
// Every node keeps a `NodeStats`; benchmark harnesses aggregate them to report
// the quantities the paper's tables sweep (local vs remote invocation ratios,
// heap contexts created, fallbacks taken, messages sent, ...). Figure 9's
// "contexts only on the block perimeter" claim is checked from these counters.
#pragma once

#include <cstdint>
#include <string>

#include "support/histogram.hpp"

namespace concert {

/// Per-node counters for runtime events. Plain aggregates so they can be
/// summed across nodes with operator+=.
struct NodeStats {
  // Invocation mix.
  std::uint64_t stack_calls = 0;       ///< Sequential invocations begun on the stack.
  std::uint64_t stack_completions = 0; ///< ... of which ran to completion on the stack.
  /// Always 0: every call binds its callee's own schema, so no call site is
  /// bound NB against it. Kept because perfbench's guarded-count table names
  /// it and compares it between builds.
  std::uint64_t spec_stack_calls = 0;
  std::uint64_t fallbacks = 0;         ///< Stack invocations that unwound into the heap.
  std::uint64_t heap_invokes = 0;      ///< Invocations that went straight to a heap context.
  std::uint64_t local_invokes = 0;     ///< Invocations whose target object was local.
  std::uint64_t remote_invokes = 0;    ///< Invocations whose target object was remote.

  // Context machinery.
  std::uint64_t contexts_allocated = 0;
  std::uint64_t contexts_freed = 0;
  std::uint64_t suspensions = 0;   ///< Context blocked on unsatisfied futures.
  std::uint64_t resumptions = 0;   ///< Context re-enqueued after its futures filled.
  std::uint64_t proxy_contexts = 0;

  // Continuations.
  std::uint64_t continuations_created = 0;
  std::uint64_t continuations_forwarded = 0;

  // Messaging. msgs_sent/received count *logical* messages (bundle elements,
  // not bundle envelopes), so the sent == received conservation law holds
  // under every flush policy; bytes_sent counts actual wire bytes.
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t replies_sent = 0;

  // Comms layer (per-destination outboxes, message coalescing).
  std::uint64_t outbox_flushes = 0;    ///< Outbox drains (one network message each).
  std::uint64_t bundles_sent = 0;      ///< Flushes that combined >1 staged message.
  std::uint64_t bundles_received = 0;
  std::uint64_t msgs_coalesced = 0;    ///< Logical messages that left inside a bundle.
  std::uint64_t comm_instructions = 0; ///< Instructions charged to messaging overhead
                                       ///< (send/recv/stage/flush; excludes wire latency).

  // Hot-path machinery (threaded-engine inbox, location cache).
  std::uint64_t inbox_batches = 0;      ///< Non-empty MPSC inbox drains.
  std::uint64_t inbox_batched_msgs = 0; ///< Messages popped across those drains.
  std::uint64_t inbox_batch_max = 0;    ///< Largest single drain.
  std::uint64_t inbox_parks = 0;        ///< Times the node thread parked idle.
  std::uint64_t park_wakeups = 0;       ///< Parks that woke to find inbox work waiting.
  std::uint64_t loc_cache_hits = 0;     ///< Location-cache hits in resolve_forwarding.
  std::uint64_t loc_cache_misses = 0;   ///< ... misses (full forwarding-chain walk).
  std::uint64_t loc_cache_invalidations = 0;  ///< Entries dropped at migration time.
  std::uint64_t cache_evictions = 0;    ///< Location-cache entries displaced by a colliding insert.

  // Memory subsystem (context slab arena, payload buffer pools).
  std::uint64_t ctx_fresh = 0;          ///< Context allocs that bumped a slab (first use of an id).
  std::uint64_t ctx_recycled = 0;       ///< Context allocs served from the arena freelist.
  std::uint64_t arena_slab_bytes = 0;   ///< Bytes reserved in context slabs.
  std::uint64_t arena_resets = 0;       ///< Quiescence-time arena/pool housekeeping passes.
  std::uint64_t payload_acquires = 0;   ///< Payload buffers requested for outgoing messages.
  std::uint64_t payload_pool_hits = 0;  ///< ... of which were served from the per-node pool.
  std::uint64_t payload_releases = 0;   ///< Delivered payload buffers returned to the pool.
  std::uint64_t payload_discards = 0;   ///< Releases dropped because the pool was full (heap free).
  std::uint64_t payload_moves = 0;      ///< Message-owned payloads handed over without a copy.
  std::uint64_t thread_pins = 0;        ///< Node threads pinned to a CPU (MachineConfig::pin_threads).

  // Merged-wave dispatch (MachineConfig::merge_waves). A "wave" is a run of
  // >= 2 same-method messages executed as one loop; singletons and ineligible
  // messages take the per-message path and are not counted here.
  std::uint64_t wave_runs = 0;  ///< Merged runs executed.
  std::uint64_t wave_msgs = 0;  ///< Messages delivered inside merged runs.
  std::uint64_t wave_max = 0;   ///< Largest single run.

  // Observability (concert-scope).
  std::uint64_t msgs_dropped_trace = 0;  ///< Trace records overwritten by the bounded ring.

  /// Flush-size histogram buckets: 1, 2, 3, 4, 5-8, 9-16, 17-32, 33+.
  static constexpr std::size_t kBundleBuckets = 8;
  std::uint64_t bundle_size_hist[kBundleBuckets] = {};

  /// Records one inbox drain of `n` messages.
  void record_inbox_batch(std::size_t n) {
    ++inbox_batches;
    inbox_batched_msgs += n;
    if (n > inbox_batch_max) inbox_batch_max = n;
  }
  /// Mean messages per non-empty inbox drain (0 before any drain).
  double mean_inbox_batch() const {
    return inbox_batches ? static_cast<double>(inbox_batched_msgs) /
                               static_cast<double>(inbox_batches)
                         : 0.0;
  }

  /// Records one merged wave of `n` messages.
  void record_wave(std::size_t n) {
    ++wave_runs;
    wave_msgs += n;
    if (n > wave_max) wave_max = n;
  }
  /// Mean messages per merged wave (0 when none ran).
  double mean_wave_size() const {
    return wave_runs ? static_cast<double>(wave_msgs) / static_cast<double>(wave_runs) : 0.0;
  }

  /// Records one flush of `n` staged messages into the histogram.
  void record_bundle(std::size_t n);
  /// Mean staged messages per flush (0 when nothing was ever flushed).
  double mean_bundle_size() const {
    return outbox_flushes ? static_cast<double>(msgs_coalesced + (outbox_flushes - bundles_sent)) /
                                static_cast<double>(outbox_flushes)
                          : 0.0;
  }

  NodeStats& operator+=(const NodeStats& o);

  /// Multi-line human-readable dump (used by benches with --verbose).
  std::string summary() const;
};

/// Periodic queue-depth samples for one node. Histograms (not just sums) so
/// the postmortem and metrics export can report p50/p99 depth and the export
/// layer can compute load skew across nodes from per-node means. Both
/// engines sample outside the cost model: the deterministic engine every
/// 4096 actions, the threaded engine from each node's own loop.
struct HealthStats {
  std::uint64_t samples = 0;
  Histogram ready_depth;
  Histogram outbox_depth;
  Histogram live_ctx;

  void add(std::uint64_t ready, std::uint64_t outbox, std::uint64_t live) {
    ++samples;
    ready_depth.record(ready);
    outbox_depth.record(outbox);
    live_ctx.record(live);
  }
};

/// Streaming min/mean/max accumulator.
class RunningStat {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace concert
