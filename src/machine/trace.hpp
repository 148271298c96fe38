// Execution tracing (concert-scope) and the always-on event ring
// (concert-insight): one per-node stream of scheduler events, exportable to
// the Chrome trace-event format (chrome://tracing, Perfetto), to a compact
// binary dump consumed by the `concert_trace` CLI, and into POSTMORTEM.json.
//
// Every node records into one ring with two presets:
//
//   * default — a fixed 256-record ring, always on. A record is the node's
//     simulated clock, the kind, the method and a small argument; recording
//     is one branch plus a masked store. It reads no wall clock, draws no
//     flow id and counts no drops. Its consumer is the postmortem path: when
//     the stall watchdog fires or a protocol check panics, each node's recent
//     history goes into POSTMORTEM.json.
//   * traced (MachineConfig::trace) — a ring of MachineConfig::trace_capacity
//     records, grown on demand. Each record is also stamped with a wall-clock
//     steady_clock offset from the machine's epoch, so the same stream serves
//     the deterministic simulator (simulated-time timelines) and the threaded
//     engine (real-time timelines). When full, the oldest record is
//     overwritten and counted as dropped (surfaced in the export metadata and
//     NodeStats::msgs_dropped_trace).
//
// Neither preset touches the cost model, so simulated clocks and the paper
// tables are bit-identical with tracing on or off.
//
// Causality (traced preset only): every MsgSend draws a machine-unique causal
// id that travels in the message and is re-recorded by the receiver's
// MsgRecv; every Suspend draws one that the matching Resume re-records. The
// Chrome export turns these pairs into Perfetto *flow events*, making a remote
// invocation's critical path (send -> recv -> dispatch -> reply -> resume)
// visible end-to-end across nodes.
//
// Each ring is written only by its owning node's thread and read after
// quiescence, so appends are plain stores — safe in the threaded engine
// without atomics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/ids.hpp"

namespace concert {

enum class TraceKind : std::uint8_t {
  MsgSend,
  MsgRecv,        ///< one message delivered (arg = source node)
  DispatchBegin,  ///< a heap context starts a parallel-version step (arg = context id)
  DispatchEnd,
  Suspend,      ///< context suspended on unfilled slots (arg = context id)
  Resume,       ///< suspended context re-enqueued (arg = context id)
  StackRun,     ///< a method ran on the handler stack (arg = merged-wave size, 0 = single)
  OutboxFlush,  ///< an outbox destination drained into the network (arg = messages)
  InboxDrain,   ///< inbox batch pulled, threaded engine (arg = batch size)
  Park,         ///< consumer parked idle, threaded engine
};

inline constexpr std::size_t kTraceKindCount = 10;

const char* trace_kind_name(TraceKind k);
/// Inverse of trace_kind_name; returns false when `name` matches no kind.
bool trace_kind_from_name(const std::string& name, TraceKind& out);

struct TraceRecord {
  std::uint64_t clock;    ///< node-local simulated instruction count
  std::uint64_t wall_ns;  ///< steady_clock ns since the machine's trace epoch; 0 untraced
  std::uint64_t cause;    ///< causal/flow id pairing send-recv and suspend-resume; 0 = none
  MethodId method;        ///< kInvalidMethod where not applicable
  TraceKind kind;
  /// Low 24 bits of the kind's argument (see TraceKind), in what would
  /// otherwise be padding. No default member initializer: it would make the
  /// record non-trivial and every node's ring slower to construct.
  std::uint32_t arg : 24;
};
static_assert(sizeof(TraceRecord) == 32, "TraceRecord must stay 32 bytes");

/// Per-node ring recorder. Appending is O(1) with no allocation once the
/// ring is warm. Single-writer (the owning node's thread), read at quiescence.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  /// Records kept by the default (untraced) preset.
  static constexpr std::size_t kDefaultCapacity = 256;

  // Filled from a prototype: value-initializing a record with a default
  // member initializer runs its constructor per element, which made machine
  // construction measurably slower.
  Tracer() : ring_(kDefaultCapacity) {}

  /// Switches to the traced preset: `capacity` records (the ring grows on
  /// demand up to it), wall-clock stamps relative to `epoch`, drops counted.
  /// A zero capacity keeps the default preset.
  void enable(std::size_t capacity, Clock::time_point epoch) {
    if (capacity == 0) return;
    traced_ = true;
    capacity_ = capacity;
    epoch_ = epoch;
    clear();
    ring_.reserve(std::min<std::size_t>(capacity, 4096));
  }
  /// True under the traced preset (wall stamps, flow ids, dropped records).
  bool traced() const { return traced_; }
  std::size_t capacity() const { return capacity_; }

  /// Appends a record. Returns true when the traced ring was full and its
  /// oldest record was overwritten; the default ring overwrites silently.
  bool record(std::uint64_t clock, TraceKind kind, MethodId method, std::uint64_t cause,
              std::uint32_t arg) {
    if (!traced_) {
      fill(ring_[total_++ & (kDefaultCapacity - 1)], clock, 0, cause, method, kind, arg);
      return false;
    }
    const std::uint64_t wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
    ++total_;
    if (ring_.size() < capacity_) {
      fill(ring_.emplace_back(), clock, wall, cause, method, kind, arg);
      return false;
    }
    fill(ring_[head_], clock, wall, cause, method, kind, arg);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    return true;
  }

  /// Records appended since construction or the last clear().
  std::uint64_t total() const { return total_; }
  /// Records retained (the newest min(total, capacity)).
  std::size_t size() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(total_, capacity_));
  }
  /// Records overwritten in a full traced ring (always 0 untraced).
  std::uint64_t dropped() const { return traced_ ? total_ - size() : 0; }

  /// The newest min(size(), newest) retained records, oldest -> newest.
  std::vector<TraceRecord> snapshot(std::size_t newest = SIZE_MAX) const;

  void clear() {
    if (traced_) ring_.clear();
    head_ = 0;
    total_ = 0;
  }

 private:
  static void fill(TraceRecord& r, std::uint64_t clock, std::uint64_t wall, std::uint64_t cause,
                   MethodId method, TraceKind kind, std::uint32_t arg) {
    r.clock = clock;
    r.wall_ns = wall;
    r.cause = cause;
    r.method = method;
    r.kind = kind;
    r.arg = arg;
  }

  bool traced_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  ///< traced preset: next overwrite position once full
  std::uint64_t total_ = 0;
  Clock::time_point epoch_{};
  std::vector<TraceRecord> ring_;
};

class Machine;

/// One record tagged with its node — the flattened, export-ready form.
struct TraceEvent {
  NodeId node;
  TraceRecord rec;
};

/// A machine's complete trace, detached from the live runtime: what the
/// binary dump stores and every converter/summarizer consumes. Events are
/// ordered (node ascending, per-node record order).
struct TraceDump {
  std::size_t node_count = 0;
  std::uint64_t dropped = 0;   ///< total records overwritten across all rings
  bool wall_time = false;      ///< which timestamp domain is meaningful for display
  double us_per_insn = 1.0;    ///< sim-time conversion (1e6 / clock_hz)
  std::vector<std::string> method_names;  ///< MethodId-indexed
  std::vector<TraceEvent> events;
};

/// Snapshots every node's tracer plus the registry's method names.
/// `wall_time` selects the display domain for subsequent Chrome export
/// (true for the threaded engine, false for the simulator).
TraceDump dump_trace(const Machine& machine, bool wall_time = false);

/// Compact binary dump (magic "CTRACE01"), the `concert_trace` CLI's input.
void write_binary_trace(const TraceDump& dump, std::ostream& os);
/// Reads a binary dump; returns false (with *err set when non-null) on a
/// malformed or truncated stream.
bool read_binary_trace(std::istream& is, TraceDump& out, std::string* err = nullptr);

/// Chrome trace-event JSON (object form): {"traceEvents": [...],
/// "metadata": {...}}. Dispatch begin/end pairs become duration events,
/// send/recv and suspend/resume pairs become Perfetto flow events bound to
/// their causal ids, everything else becomes instants. Timestamps come from
/// the dump's display domain (wall ns -> us, or sim instructions -> us).
/// The metadata block surfaces the dropped-record and incomplete-flow counts.
void write_chrome_trace(const TraceDump& dump, std::ostream& os);

/// An extra duration slice overlaid on the export (concert-insight renders
/// the critical path this way): drawn on a dedicated track (pid 1) above the
/// per-node timelines.
struct ChromeSlice {
  std::string name;
  std::string cat;
  double ts_us;
  double dur_us;
};

/// Chrome export with extra overlay slices on a "critical path" track.
void write_chrome_trace(const TraceDump& dump, std::ostream& os,
                        const std::vector<ChromeSlice>& extra);

/// Convenience overload: dump + export in simulated time.
void write_chrome_trace(const Machine& machine, std::ostream& os);

/// Flows that cannot be paired anymore: MsgRecv events whose matching MsgSend
/// record was overwritten in a full ring (or never traced). A non-zero count
/// means causal analyses (critpath, flow pairing) see a truncated graph —
/// surfaced by `concert_trace summary` and the Chrome export metadata.
std::uint64_t count_incomplete_flows(const TraceDump& dump);

}  // namespace concert
