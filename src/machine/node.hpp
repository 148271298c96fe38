// A node of the multicomputer: local clock, context arena, scheduler ready
// queue, message inbox, object table, and the reply-routing primitive.
//
// A node executes one action at a time (handle one message, or run one ready
// context step); everything that crosses nodes travels as a message. This
// run-to-completion handler discipline is the CM-5 active-message style the
// paper's runtime uses, and it is what makes the unwinding protocol safe: a
// whole stack speculation (including its fallback) finishes before any reply
// can be processed on the same node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/context.hpp"
#include "core/inject.hpp"
#include "core/registry.hpp"
#include "core/schema.hpp"
#include "machine/cost_model.hpp"
#include "machine/flush_policy.hpp"
#include "machine/message.hpp"
#include "machine/mpsc_queue.hpp"
#include "machine/outbox.hpp"
#include "machine/trace.hpp"
#include "objects/location_cache.hpp"
#include "objects/object_space.hpp"
#include "support/arena.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/site_profiler.hpp"
#include "support/stats.hpp"
#include "verify/recorder.hpp"

namespace concert {

class Machine;

/// Per-node histogram recorders (concert-scope), allocated only when
/// MachineConfig::metrics is on — the disabled cost at every recording site
/// is a single null check. Touched only by the owning node's thread; merged
/// across nodes at export time (export_metrics).
struct NodeMetrics {
  Histogram invoke_latency_ns;  ///< Every timed invocation (dispatch steps + stack runs).
  Histogram inbox_depth;        ///< Messages drained per non-empty inbox batch.
  Histogram ctx_lifetime_ns;    ///< Context allocation -> free wall time.
  Histogram flush_size;         ///< Staged messages per outbox flush.
  Histogram wave_size;          ///< Messages per merged wave (merge_waves runs only).
  /// Per-method invocation latency, MethodId-indexed (grown on first use).
  Histogram& method_latency(MethodId m) {
    if (m >= per_method.size()) per_method.resize(m + 1);
    return per_method[m];
  }
  std::vector<Histogram> per_method;
};

/// RAII invocation-latency probe: stamps steady_clock on entry and records
/// the inclusive wall time under the method's histogram on scope exit. A
/// null `metrics` makes both ends a single branch.
class ScopedInvokeLatency {
 public:
  ScopedInvokeLatency(NodeMetrics* metrics, MethodId method) : mx_(metrics), method_(method) {
    if (mx_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedInvokeLatency() {
    if (mx_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    const std::uint64_t v = static_cast<std::uint64_t>(ns);
    mx_->invoke_latency_ns.record(v);
    mx_->method_latency(method_).record(v);
  }
  ScopedInvokeLatency(const ScopedInvokeLatency&) = delete;
  ScopedInvokeLatency& operator=(const ScopedInvokeLatency&) = delete;

 private:
  NodeMetrics* mx_;
  MethodId method_;
  std::chrono::steady_clock::time_point t0_{};
};

class Node {
 public:
  Node(NodeId id, Machine& machine);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Machine& machine() { return machine_; }
  MethodRegistry& registry();

  /// Flat dispatch-table row for `m` under this machine's execution mode:
  /// the invoke fast path's registry questions (effective schema, code
  /// pointers, frame size, arity) answered with a single indexed load. The
  /// table is built once in MethodRegistry::seal(); the pointer is bound
  /// lazily on first use (sealing happens after node construction).
  const DispatchEntry& dispatch(MethodId m) {
    if (dispatch_ == nullptr) bind_dispatch();
    CONCERT_CHECK(m < dispatch_size_, "bad method id " << m);
    return dispatch_[m];
  }

  const CostModel& costs() const;
  ExecMode mode() const;
  FallbackPolicy fallback_policy() const;
  const FlushPolicy& comms_policy() const;
  bool futures_in_context() const;  ///< Ablation A2 switch.

  // ---- simulated clock ----
  void charge(std::uint64_t instructions) { clock_ += instructions; }
  std::uint64_t clock() const { return clock_; }
  void advance_clock_to(std::uint64_t t) {
    if (t > clock_) clock_ = t;
  }

  // ---- contexts ----
  /// Allocates a context sized from the method's registry entry, charging the
  /// cost model and counting the allocation.
  Context& alloc_context(MethodId m);
  /// Allocates a raw context with an explicit slot count (root and proxies).
  Context& alloc_context_raw(MethodId m, std::size_t slots);
  void free_context(Context& ctx);
  ContextArena& arena() { return arena_; }
  const ContextArena& arena() const { return arena_; }

  // ---- payload buffers ----
  /// Hands out a cleared Value buffer for an outgoing message payload,
  /// recycled from this node's pool when possible (counts the pool hit).
  /// Callers run on this node's thread (Node::send discipline), so the pool
  /// needs no locking.
  std::vector<Value> acquire_payload(std::size_t reserve);
  /// Returns a delivered payload buffer to this node's pool. Zero-capacity
  /// buffers (moved-from, never-grown) are ignored; over-cap releases are
  /// dropped and counted.
  void release_payload(std::vector<Value>&& buf);
  BufferPool<Value>& payload_pool() { return payload_pool_; }

  /// Quiescence-time memory housekeeping: canonicalizes the context arena
  /// freelist and trims the payload pool. Charges nothing — the cost model
  /// never sees it — so tables 4/5/6 are unaffected.
  void quiesce_memory();

  // ---- scheduler ----
  void enqueue(Context& ctx);
  /// Suspends a context on its expected futures; if they all filled already
  /// it is immediately re-enqueued (the "touch found everything" fast case).
  void suspend(Context& ctx);
  /// Releases an adoption guard (see Context::add_guard); if that was the
  /// last outstanding join and the context is Waiting, it becomes runnable.
  void release_guard(Context& ctx);
  /// Makes a Waiting context runnable again (counts the resumption and, under
  /// AlwaysRetrySequential, charges the re-speculation cost).
  void resume(Context& ctx);
  bool has_ready() const { return !ready_.empty(); }
  std::size_t ready_count() const { return ready_.size(); }
  /// Pops and runs one ready context step. Returns false if the queue was empty.
  bool run_one();

  // ---- messaging ----
  /// Logically sends a message. Under FlushPolicy::Immediate this charges
  /// send overhead + packet costs and hands the message to the machine for
  /// routing right away (the seed behaviour, bit-for-bit). Under a buffered
  /// policy the message is staged in the per-destination outbox and leaves at
  /// flush time, amortizing the per-message overhead over the whole bundle.
  /// Works for both engines.
  void send(Message msg);
  /// Processes one delivered message. Bundles are unpacked here: each element
  /// runs through the same wrapper / reply-routing path as a plain message,
  /// but the per-message receive overhead is paid once per bundle.
  void deliver(Message& msg);
  /// Merged-wave delivery (MachineConfig::merge_waves): processes a whole
  /// drained batch, executing maximal contiguous runs of same-method
  /// wave-eligible invocations as one loop each (see DispatchEntry::wave) and
  /// everything else through deliver(). Message order is the batch order
  /// throughout, so per-channel FIFO and per-object delivery order are
  /// exactly those of the per-message path. While each run executes, every
  /// outgoing send is staged and flushed when the run retires (replies leave
  /// as per-destination bundles). Retires one unit of engine work accounting
  /// per message (Machine::on_work_retired).
  void deliver_batch(std::vector<Message>& batch);
  /// Merged-wave request staging (threaded engine, MachineConfig::merge_waves):
  /// while on, every send stages in the outbox regardless of flush policy.
  /// The engine brackets each context slice with it so a burst of spawns —
  /// e.g. a driver seeding a whole phase — leaves as one bundle per
  /// destination and arrives as one homogeneous run at the receiver.
  void set_wave_staging(bool on) { wave_staging_ = on; }

  // ---- outbox (comms layer) ----
  /// Called once by the machine after all nodes exist; sizes the outbox.
  void init_comms(std::size_t nodes);
  std::size_t outbox_pending() const { return outbox_.total(); }
  bool outbox_empty() const { return outbox_.empty(); }
  /// Drains one destination into a single network message (a bundle if more
  /// than one message is staged), charging the amortized bundle cost.
  void flush_outbox(NodeId dst);
  /// Drains every destination in ascending id order (deterministic).
  /// Returns the number of staged messages that left.
  std::size_t flush_all_outboxes();

  /// Lock-free MPSC inbox used by the threaded engine (the deterministic
  /// engine keeps undelivered messages in SimNetwork instead). Any thread may
  /// push; only the owning node's thread pops/drains.
  void push_inbox(Message msg);
  bool pop_inbox(Message& out);
  /// Consumer-side emptiness probe (only the owning node's thread may call).
  bool inbox_empty() const;
  /// Batched drain (consumer only): appends up to `max` messages to `out`,
  /// recording the batch size in `stats`. Returns the number drained.
  std::size_t drain_inbox(std::vector<Message>& out, std::size_t max);
  /// Parks the consumer until a producer pushes, `timeout` elapses, or
  /// wake_inbox() is called — the threaded engine's idle path, so quiescence
  /// detection does not spin a whole core per idle node.
  void park_inbox(std::chrono::microseconds timeout);
  /// Wakes a parked consumer (engine shutdown, external prodding).
  void wake_inbox();

  // ---- reply routing ----
  /// Delivers `v` to the future named by `k`: a local slot fill, or a Reply
  /// message if the continuation's context lives on another node.
  void reply_to(const Continuation& k, const Value& v);
  /// Multi-value reply: fills `n` consecutive slots starting at `k.slot`,
  /// with a single message when remote (the paper's "multiple return values"
  /// extension).
  void reply_to_multi(const Continuation& k, const Value* vs, std::size_t n);
  /// Local slot fill (k.target.node must be this node).
  void fill_local(const Continuation& k, const Value& v);

  // ---- objects ----
  ObjectSpace& objects() { return objects_; }
  /// Direct-mapped cache of stale GlobalRef -> current location, consulted by
  /// resolve_forwarding to short-circuit forwarding-record chases after
  /// migration. Touched only by this node's thread.
  LocationCache& location_cache() { return loc_cache_; }
  /// Performs the speculative-inlining checks (name translation + locality +
  /// lock), charging them unless running SeqOpt. Pure locality answer.
  bool local_and_unlocked(const GlobalRef& ref);

  // ---- test hooks ----
  BlockInjector& injector() { return injector_; }
  const BlockInjector& injector() const { return injector_; }

  // ---- observability (concert-scope / concert-insight) ----
  /// Records one event into the node's ring (see machine/trace.hpp), never
  /// charging the cost model. Under MachineConfig::trace, ring overwrites are
  /// mirrored into stats.msgs_dropped_trace. `cause` links flow pairs
  /// (send/recv, suspend/resume; 0 means none); `arg` is the kind's argument.
  void trace(TraceKind kind, MethodId method, std::uint64_t cause = 0, std::uint32_t arg = 0) {
    if (tracer.record(clock_, kind, method, cause, arg)) ++stats.msgs_dropped_trace;
  }
  /// Histogram recorders, or nullptr when MachineConfig::metrics is off.
  NodeMetrics* metrics() { return metrics_.get(); }
  const NodeMetrics* metrics() const { return metrics_.get(); }
  /// Takes one queue-depth health sample. Engines call this periodically
  /// from whichever thread owns the node (the deterministic engine's
  /// scheduling loop, or the node's own thread in the threaded engine).
  void sample_health() {
    health.add(ready_.size(), outbox_.total(), arena_.live_count());
  }
  /// Per-call-edge profile (MachineConfig::profile_sites); empty and
  /// disabled by default. Touched only by this node's thread.
  SiteProfiler& sites() { return sites_; }
  const SiteProfiler& sites() const { return sites_; }

  NodeStats stats;
  /// Periodic queue-depth samples (ready, outbox, live contexts).
  HealthStats health;
  SplitMix64 rng;
  /// The node's event ring: always on, dumped into POSTMORTEM.json on a
  /// stall or panic; under MachineConfig::trace, the full trace. Touched
  /// only by this node's thread; read after quiescence or thread join.
  Tracer tracer;
  /// Conformance sanitizer hook (enabled from MachineConfig::verify; records
  /// nothing and costs one branch per site when off). Touched only by this
  /// node's thread, like the outbox. Checked by verify::check_conformance.
  verify::VerifyRecorder verifier;

 private:
  std::uint32_t arena_gen_of(ContextId id);
  /// Dynamic self-deadlock probe (concert-analyze; verify builds only): walks
  /// the deferred context's local continuation chain looking for an ancestor
  /// activation that holds the very lock `ctx` is waiting for. Such an
  /// invocation can never be dispatched — the holder cannot complete until
  /// the chain it spawned (including `ctx`) replies.
  bool deadlocked_on_ancestor(const Context& ctx);
  /// Reply fill / wrapper execution shared by plain messages and bundle
  /// elements (per-message overhead already charged by deliver()).
  void deliver_element(Message& msg);
  /// Executes the run currently staged in the wave_* scratch columns as one
  /// merged loop (deliver_batch's helper; charges the amortized wave costs).
  /// `recv_accounted` marks runs expanded from a bundle, whose receive cost
  /// and per-member receive stats were paid at bundle arrival.
  void execute_wave(MethodId method, bool recv_accounted);
  void bind_dispatch();

  NodeId id_;
  Machine& machine_;
  std::uint64_t clock_ = 0;
  ContextArena arena_;
  std::deque<ContextId> ready_;  ///< FIFO of ready contexts (by id; gen checked at pop).
  MpscQueue<Message> inbox_;     ///< Lock-free; producers are other node threads.
  // Idle parking for the inbox consumer (threaded engine only). The mutex is
  // touched only when parking / waking a parked node — never on the push fast
  // path of a running system.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<bool> parked_{false};
  // Flat dispatch table for this machine's mode; bound on first dispatch().
  const DispatchEntry* dispatch_ = nullptr;
  std::size_t dispatch_size_ = 0;
  Outbox outbox_;  ///< Staged outgoing messages; touched only by this node's thread.
  /// Recycler for message payload buffers. Acquired by this node's thread on
  /// send, refilled with buffers arriving in delivered messages — symmetric
  /// traffic keeps it balanced without cross-thread access.
  BufferPool<Value> payload_pool_{kPayloadPoolCap};
  static constexpr std::size_t kPayloadPoolCap = 256;
  /// Buffers kept across quiescence (quiesce_memory trims down to this).
  /// Kept close to the cap: bursty exchange phases (SOR boundary rows) drain
  /// the pool faster than deliveries refill it, so a deep trim turns the
  /// first burst after every quiescent point into fresh heap allocations.
  static constexpr std::size_t kPayloadPoolKeep = 192;
  std::vector<Message> flush_scratch_;  ///< Reused drain buffer (capacity cycles).
  // Merged-wave scratch: the struct-of-arrays columns an InvokeWave view
  // points into, rebuilt per run from the drained messages (capacity cycles,
  // no per-batch allocation). wave_msgs_ keeps the source messages so their
  // payloads can be released after the wave executes.
  std::vector<GlobalRef> wave_targets_;
  std::vector<const Value*> wave_args_;
  std::vector<std::uint32_t> wave_nargs_;
  std::vector<Continuation> wave_replies_;
  std::vector<Message*> wave_msgs_;
  /// Upper bound on a merged run. Caps the reply bundle a single run emits,
  /// which bounds how long a requester waits for its first replies while
  /// this node works through a long drain — past ~32 the amortization gain
  /// per extra member is negligible but the lost overlap is not.
  static constexpr std::size_t kWaveCap = 32;
  /// True while a wave run is executing: Node::send stages every outgoing
  /// message in the outbox regardless of flush policy, so the run's replies
  /// leave as one bundle per destination when the run retires.
  bool wave_staging_ = false;
  std::unique_ptr<NodeMetrics> metrics_;  ///< Null unless MachineConfig::metrics.
  SiteProfiler sites_;  ///< Disabled (and empty) unless MachineConfig::profile_sites.
  ObjectSpace objects_;
  LocationCache loc_cache_;
  BlockInjector injector_;
};

}  // namespace concert
