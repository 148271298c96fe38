#include "machine/trace.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <unordered_set>

#include "machine/machine.hpp"

namespace concert {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::MsgSend: return "msg_send";
    case TraceKind::MsgRecv: return "msg_recv";
    case TraceKind::DispatchBegin: return "dispatch";
    case TraceKind::DispatchEnd: return "dispatch_end";
    case TraceKind::Suspend: return "suspend";
    case TraceKind::Resume: return "resume";
    case TraceKind::StackRun: return "stack_run";
    case TraceKind::OutboxFlush: return "outbox_flush";
    case TraceKind::InboxDrain: return "inbox_drain";
    case TraceKind::Park: return "park";
  }
  return "?";
}

bool trace_kind_from_name(const std::string& name, TraceKind& out) {
  for (std::size_t i = 0; i < kTraceKindCount; ++i) {
    const TraceKind k = static_cast<TraceKind>(i);
    if (name == trace_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::vector<TraceRecord> Tracer::snapshot(std::size_t newest) const {
  const std::size_t kept = std::min(size(), newest);
  std::vector<TraceRecord> out;
  out.reserve(kept);
  // Once the ring has wrapped, the oldest record sits at the next write
  // position.
  std::size_t start = 0;
  if (total_ > capacity_) start = traced_ ? head_ : total_ & (kDefaultCapacity - 1);
  for (std::size_t i = size() - kept; i < size(); ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

TraceDump dump_trace(const Machine& machine, bool wall_time) {
  TraceDump d;
  d.node_count = machine.node_count();
  d.wall_time = wall_time;
  d.us_per_insn = 1e6 / machine.costs().clock_hz;
  d.method_names.reserve(machine.registry().size());
  for (MethodId m = 0; m < machine.registry().size(); ++m) {
    d.method_names.push_back(machine.registry().info(m).name);
  }
  for (NodeId nid = 0; nid < machine.node_count(); ++nid) {
    const Tracer& t = machine.node(nid).tracer;
    d.dropped += t.dropped();
    for (const TraceRecord& r : t.snapshot()) d.events.push_back(TraceEvent{nid, r});
  }
  return d;
}

// ---------------------------------------------------------------------------
// Binary dump: "CTRACE01" magic, header, method-name table, flat event list.
// Host-endian fixed-width fields — the dump is a same-machine artifact (CI
// produces and consumes it in one job), not an interchange format. The
// record's `arg` is not stored: it serves the postmortem, and the layout
// stays that of CTRACE01.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'C', 'T', 'R', 'A', 'C', 'E', '0', '1'};

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return is.good();
}

bool fail(std::string* err, const char* what) {
  if (err != nullptr) *err = what;
  return false;
}

/// On-disk bytes of one event: node, method, kind, clock, wall_ns, cause.
constexpr std::uint64_t kEventBytes = 4 + 4 + 1 + 8 + 8 + 8;
/// Largest node count a dump may declare. Readers size per-node tables from
/// it, so a corrupt header must not turn into a huge allocation.
constexpr std::uint32_t kMaxDumpNodes = 1u << 20;

/// Bytes between the read position and the end of a seekable stream;
/// UINT64_MAX when the stream cannot seek.
std::uint64_t bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  if (here < 0) return UINT64_MAX;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  return end >= here ? static_cast<std::uint64_t>(end - here) : 0;
}

}  // namespace

void write_binary_trace(const TraceDump& dump, std::ostream& os) {
  os.write(kMagic, sizeof kMagic);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(dump.node_count));
  put<std::uint64_t>(os, dump.dropped);
  put<std::uint8_t>(os, dump.wall_time ? 1 : 0);
  put<double>(os, dump.us_per_insn);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(dump.method_names.size()));
  for (const std::string& name : dump.method_names) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  put<std::uint64_t>(os, dump.events.size());
  for (const TraceEvent& e : dump.events) {
    put<std::uint32_t>(os, e.node);
    put<std::uint32_t>(os, e.rec.method);
    put<std::uint8_t>(os, static_cast<std::uint8_t>(e.rec.kind));
    put<std::uint64_t>(os, e.rec.clock);
    put<std::uint64_t>(os, e.rec.wall_ns);
    put<std::uint64_t>(os, e.rec.cause);
  }
}

bool read_binary_trace(std::istream& is, TraceDump& out, std::string* err) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is.good() || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail(err, "not a concert trace (bad magic; expected CTRACE01)");
  }
  std::uint32_t nodes = 0, n_methods = 0;
  std::uint8_t wall = 0;
  if (!get(is, nodes) || !get(is, out.dropped) || !get(is, wall) || !get(is, out.us_per_insn)) {
    return fail(err, "truncated header");
  }
  if (nodes > kMaxDumpNodes) return fail(err, "bad node count");
  if (!std::isfinite(out.us_per_insn) || out.us_per_insn <= 0) {
    return fail(err, "bad time scale");
  }
  out.node_count = nodes;
  out.wall_time = wall != 0;
  if (!get(is, n_methods)) return fail(err, "truncated method table");
  // Every count below comes from the file: reserve only what the bytes that
  // remain can hold (nothing on a stream that cannot seek), so a corrupt
  // count fails as a truncation instead of an allocation.
  out.method_names.clear();
  const std::uint64_t names_left = bytes_left(is);
  if (names_left != UINT64_MAX) {
    out.method_names.reserve(std::min<std::uint64_t>(n_methods, names_left / 4));
  }
  for (std::uint32_t i = 0; i < n_methods; ++i) {
    std::uint32_t len = 0;
    if (!get(is, len) || len > (1u << 20)) return fail(err, "bad method-name length");
    std::string name(len, '\0');
    is.read(name.data(), len);
    if (!is.good()) return fail(err, "truncated method name");
    out.method_names.push_back(std::move(name));
  }
  std::uint64_t n_events = 0;
  if (!get(is, n_events)) return fail(err, "truncated event count");
  out.events.clear();
  const std::uint64_t events_left = bytes_left(is);
  if (events_left != UINT64_MAX) {
    if (n_events > events_left / kEventBytes) return fail(err, "event count exceeds the file");
    out.events.reserve(static_cast<std::size_t>(n_events));
  }
  for (std::uint64_t i = 0; i < n_events; ++i) {
    TraceEvent e;
    std::uint32_t node = 0, method = 0;
    std::uint8_t kind = 0;
    if (!get(is, node) || !get(is, method) || !get(is, kind) || !get(is, e.rec.clock) ||
        !get(is, e.rec.wall_ns) || !get(is, e.rec.cause)) {
      return fail(err, "truncated event list");
    }
    if (kind >= kTraceKindCount) return fail(err, "bad event kind");
    if (node >= nodes) return fail(err, "event node out of range");
    if (method != kInvalidMethod && method >= n_methods) {
      return fail(err, "event method out of range");
    }
    e.node = static_cast<NodeId>(node);
    e.rec.method = method;
    e.rec.kind = static_cast<TraceKind>(kind);
    out.events.push_back(e);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON with Perfetto flow events.
// ---------------------------------------------------------------------------

namespace {

const char* method_name_of(const TraceDump& dump, MethodId m) {
  if (m == kInvalidMethod || m >= dump.method_names.size()) return "(root)";
  return dump.method_names[m].c_str();
}

double display_ts(const TraceDump& dump, const TraceRecord& r) {
  return dump.wall_time ? static_cast<double>(r.wall_ns) / 1e3
                        : static_cast<double>(r.clock) * dump.us_per_insn;
}

}  // namespace

std::uint64_t count_incomplete_flows(const TraceDump& dump) {
  std::unordered_set<std::uint64_t> sends;
  for (const TraceEvent& e : dump.events) {
    if (e.rec.kind == TraceKind::MsgSend && e.rec.cause != 0) sends.insert(e.rec.cause);
  }
  std::uint64_t incomplete = 0;
  for (const TraceEvent& e : dump.events) {
    if (e.rec.kind == TraceKind::MsgRecv && e.rec.cause != 0 && sends.count(e.rec.cause) == 0) {
      ++incomplete;
    }
  }
  return incomplete;
}

void write_chrome_trace(const TraceDump& dump, std::ostream& os) {
  write_chrome_trace(dump, os, {});
}

void write_chrome_trace(const TraceDump& dump, std::ostream& os,
                        const std::vector<ChromeSlice>& extra) {
  os << "{\"traceEvents\": [";
  bool first = true;
  auto emit_head = [&](NodeId node, const char* ph, const char* name, double ts) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":0,\"tid\":" << node << ",\"ph\":\"" << ph << "\",\"name\":\"" << name
       << "\",\"ts\":" << ts;
  };

  // Flow events: a start ("s") at the cause's origin, a finish ("f", bound to
  // the enclosing slice) at its destination. `cat` + `name` + `id` tie the
  // pair together in Perfetto.
  auto emit_flow = [&](NodeId node, bool start, const char* cat, double ts, std::uint64_t id) {
    emit_head(node, start ? "s" : "f", cat, ts);
    os << ",\"cat\":\"" << cat << "\",\"id\":" << id;
    if (!start) os << ",\"bp\":\"e\"";
    os << "}";
  };

  // Dispatches cannot nest within one node (run-to-completion steps), so a
  // linear scan with one open begin per node pairs begin/end; a ring that
  // dropped a begin leaves an unmatched end (skipped), a dropped end leaves
  // a zero-duration begin.
  std::vector<double> open_ts(dump.node_count, -1.0);

  for (const TraceEvent& e : dump.events) {
    const TraceRecord& r = e.rec;
    const double ts = display_ts(dump, r);
    switch (r.kind) {
      case TraceKind::DispatchBegin:
        open_ts[e.node] = ts;
        break;
      case TraceKind::DispatchEnd: {
        const double begin = open_ts[e.node];
        if (begin >= 0) {
          emit_head(e.node, "X", method_name_of(dump, r.method), begin);
          os << ",\"dur\":" << (ts - begin) << "}";
          open_ts[e.node] = -1.0;
        }
        break;
      }
      case TraceKind::MsgSend:
      case TraceKind::Suspend: {
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << method_name_of(dump, r.method)
           << "\",\"cause\":" << r.cause << "}}";
        if (r.cause != 0) {
          emit_flow(e.node, true, r.kind == TraceKind::MsgSend ? "msg" : "ctx", ts, r.cause);
        }
        break;
      }
      case TraceKind::MsgRecv:
      case TraceKind::Resume: {
        if (r.cause != 0) {
          emit_flow(e.node, false, r.kind == TraceKind::MsgRecv ? "msg" : "ctx", ts, r.cause);
        }
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << method_name_of(dump, r.method)
           << "\",\"cause\":" << r.cause << "}}";
        break;
      }
      case TraceKind::StackRun:
      case TraceKind::OutboxFlush:
      case TraceKind::InboxDrain:
      case TraceKind::Park:
        emit_head(e.node, "i", trace_kind_name(r.kind), ts);
        os << ",\"s\":\"t\",\"args\":{\"method\":\"" << method_name_of(dump, r.method) << "\"}}";
        break;
    }
  }
  // Overlay track (pid 1): extra slices — e.g. the critical path — rendered
  // above the per-node timelines, with a process-name metadata record so
  // Perfetto labels the track.
  if (!extra.empty()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"pid\":1,\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\","
       << "\"args\":{\"name\":\"critical path\"}}";
    for (const ChromeSlice& s : extra) {
      os << ",\n{\"pid\":1,\"tid\":0,\"ph\":\"X\",\"name\":\"" << s.name << "\",\"cat\":\""
         << s.cat << "\",\"ts\":" << s.ts_us << ",\"dur\":" << s.dur_us << "}";
    }
  }
  os << "\n],\n\"metadata\": {\"tool\":\"concert-scope\",\"nodes\":" << dump.node_count
     << ",\"dropped_events\":" << dump.dropped
     << ",\"incomplete_flows\":" << count_incomplete_flows(dump) << ",\"time_domain\":\""
     << (dump.wall_time ? "wall" : "sim") << "\",\"us_per_insn\":" << dump.us_per_insn
     << "}\n}\n";
}

void write_chrome_trace(const Machine& machine, std::ostream& os) {
  write_chrome_trace(dump_trace(machine, /*wall_time=*/false), os);
}

}  // namespace concert
