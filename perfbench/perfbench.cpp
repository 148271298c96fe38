// The repository benchmark's measuring program. One invocation runs one
// workload (see README.md) in a closed loop for a fixed time and prints, as
// the last line of its standard output, one JSON object with the run's
// end-to-end metrics, its per-layer metrics (traced run only), the counts the
// exact-count guard compares, and the output-check tally. run.py builds this
// program, drives it and reduces that object to the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 1 makes the traced run: the same untraced measurement, then a few
// reps on a machine with MachineConfig::trace on (critical-path fractions and
// the tracing overhead), for a threaded workload a few sor_sim64 reps (the
// sim-engine metrics), then the per-layer cost loops, all under in-memory
// spans written to DIR/spans-NAME-seedN.json at the end.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "machine/critpath.hpp"
#include "machine/trace.hpp"
#include "support/stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Heap-allocation probe: every global operator new bumps one relaxed atomic,
// so a rep's allocation count is a difference of two loads.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}

// The replacements pair malloc with free; GCC 12 cannot see that once they
// are inlined into library code and reports a new/free mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace perfbench {
namespace {

using concert::NodeStats;

/// Nearest-rank quantile (q in (0, 1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Named, ordered counts (the exact-count guard's unit of comparison).
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// Every additive NodeStats counter, by name. Maxima (inbox_batch_max,
/// wave_max) and the bundle histogram are not deltas and are left out.
struct StatField {
  const char* name;
  std::uint64_t NodeStats::*field;
};

#define PERFBENCH_STAT(f) StatField{#f, &NodeStats::f}
constexpr StatField kStatFields[] = {
    PERFBENCH_STAT(stack_calls),           PERFBENCH_STAT(stack_completions),
    PERFBENCH_STAT(spec_stack_calls),      PERFBENCH_STAT(fallbacks),
    PERFBENCH_STAT(heap_invokes),          PERFBENCH_STAT(local_invokes),
    PERFBENCH_STAT(remote_invokes),        PERFBENCH_STAT(contexts_allocated),
    PERFBENCH_STAT(contexts_freed),        PERFBENCH_STAT(suspensions),
    PERFBENCH_STAT(resumptions),           PERFBENCH_STAT(proxy_contexts),
    PERFBENCH_STAT(continuations_created), PERFBENCH_STAT(continuations_forwarded),
    PERFBENCH_STAT(msgs_sent),             PERFBENCH_STAT(msgs_received),
    PERFBENCH_STAT(bytes_sent),            PERFBENCH_STAT(replies_sent),
    PERFBENCH_STAT(outbox_flushes),        PERFBENCH_STAT(bundles_sent),
    PERFBENCH_STAT(bundles_received),      PERFBENCH_STAT(msgs_coalesced),
    PERFBENCH_STAT(comm_instructions),     PERFBENCH_STAT(inbox_batches),
    PERFBENCH_STAT(inbox_batched_msgs),    PERFBENCH_STAT(inbox_parks),
    PERFBENCH_STAT(park_wakeups),          PERFBENCH_STAT(loc_cache_hits),
    PERFBENCH_STAT(loc_cache_misses),      PERFBENCH_STAT(loc_cache_invalidations),
    PERFBENCH_STAT(cache_evictions),       PERFBENCH_STAT(ctx_fresh),
    PERFBENCH_STAT(ctx_recycled),          PERFBENCH_STAT(arena_slab_bytes),
    PERFBENCH_STAT(arena_resets),          PERFBENCH_STAT(payload_acquires),
    PERFBENCH_STAT(payload_pool_hits),     PERFBENCH_STAT(payload_releases),
    PERFBENCH_STAT(payload_discards),      PERFBENCH_STAT(payload_moves),
    PERFBENCH_STAT(thread_pins),           PERFBENCH_STAT(wave_runs),
    PERFBENCH_STAT(wave_msgs),             PERFBENCH_STAT(msgs_dropped_trace),
};
#undef PERFBENCH_STAT

/// after - before, field by field over kStatFields.
NodeStats stats_delta(const NodeStats& after, const NodeStats& before) {
  NodeStats d;
  for (const StatField& f : kStatFields) d.*f.field = after.*f.field - before.*f.field;
  return d;
}

/// The run is split into segments, each on a freshly built machine: their
/// setup times are the setup_s samples, and spreading them over the run
/// samples every phase of the host. A segment lasts 1/kSegments of the run.
constexpr int kSegments = 10;
/// ... or at most this many timed reps. On one machine the payload pools of
/// receive-heavy nodes keep filling until they reach their cap and discard
/// buffers (after ~80 reps on sor_sim64), so
/// stats.payload_discards would drift.
constexpr std::size_t kMaxSegmentReps = 40;
/// Timed setups per segment (the last one's machine is measured).
constexpr int kSetupsPerSegment = 3;
/// Unguarded (but checked) reps after each setup, while arenas, payload
/// pools and caches fill; sor_sim64's counts settle on the third rep.
constexpr int kWarmupReps = 3;
/// Enough timed reps that at least 10 lie beyond the 90th percentile.
constexpr std::size_t kMinReps = 100;
/// Reps timed on the traced machine (the first one's trace is analysed).
constexpr int kTracedReps = 7;
/// sor_sim64 reps timed for the sim-engine metrics of a threaded workload's
/// traced run.
constexpr int kSimSampleReps = 20;

struct Rep {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
  NodeStats delta;
  std::uint64_t sim_instr = 0;
  std::uint64_t sim_actions = 0;
  std::uint64_t heap_allocs = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Counts reference;  ///< guarded counts of the first measured rep

  void fail(const std::string& why) {
    if (failures.size() < 16) failures.push_back(why);
  }
};

/// The counts the program determines: they must repeat bit-for-bit across
/// reps and across runs on the same inputs. On the threaded engine the
/// charged instructions vary slightly with the interleaving (seen on
/// em3d_thr3), so only invocations and messages are guarded there.
Counts guarded_counts(const Workload& w, const Rep& r) {
  Counts c = {{"invocations", r.delta.local_invokes + r.delta.remote_invokes},
              {"msgs", r.delta.msgs_sent}};
  if (w.deterministic_engine()) {
    c.emplace_back("sim_instr", r.sim_instr);
    c.emplace_back("sim.actions", r.sim_actions);
    for (const StatField& f : kStatFields) {
      c.emplace_back(std::string("stats.") + f.name, r.delta.*f.field);
    }
  }
  return c;
}

Rep run_rep(Workload& w, Spans& spans, Tally& tally, bool guard) {
  w.prepare();
  concert::Machine& m = w.machine();
  const NodeStats s0 = m.total_stats();
  const std::uint64_t clk0 = m.max_clock();
  const std::uint64_t act0 = w.sim_actions();
  Rep r;
  bool ran = false;
  {
    SpanScope s(spans, "rep.run");
    const std::uint64_t h0 = g_heap_allocs.load(std::memory_order_relaxed);
    const double c0 = cpu_now();
    const double t0 = wall_now();
    ran = w.run();
    r.wall_s = wall_now() - t0;
    r.cpu_s = cpu_now() - c0;
    r.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed) - h0;
  }
  r.delta = stats_delta(m.total_stats(), s0);
  r.sim_instr = m.max_clock() - clk0;
  r.sim_actions = w.sim_actions() - act0;
  {
    SpanScope s(spans, "rep.check");
    r.ok = w.check() && ran;
  }
  ++tally.attempted;
  if (!r.ok) tally.fail("rep " + std::to_string(tally.attempted) + ": output check failed");
  if (guard) {
    const Counts c = guarded_counts(w, r);
    if (tally.reference.empty()) {
      tally.reference = c;
    } else if (c != tally.reference) {
      r.ok = false;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (c[i].second != tally.reference[i].second) {
          tally.fail("rep " + std::to_string(tally.attempted) + ": count " + c[i].first + " = " +
                     std::to_string(c[i].second) + ", first rep had " +
                     std::to_string(tally.reference[i].second));
        }
      }
    }
  }
  if (!r.ok) ++tally.failed;
  return r;
}

struct Untraced {
  std::vector<Rep> reps;      ///< timed reps only
  std::vector<double> setup;  ///< kSetupsPerSegment samples per segment
};

/// Closed loop for `seconds` (and at least kMinReps timed reps), one
/// segment after another: set up (timed), warm up, then rep after rep.
Untraced measure(Workload& w, double seconds, Spans& spans, Tally& tally) {
  Untraced u;
  const double end = wall_now() + seconds;
  while (wall_now() < end || u.reps.size() < kMinReps) {
    SpanScope s(spans, "segment");
    for (int i = 0; i < kSetupsPerSegment; ++i) {
      if (i > 0) w.teardown();
      SpanScope st(spans, "setup");
      const double t0 = wall_now();
      w.setup(spans, /*traced=*/false);
      u.setup.push_back(wall_now() - t0);
    }
    for (int i = 0; i < kWarmupReps; ++i) run_rep(w, spans, tally, /*guard=*/false);
    const double seg_end = std::min(end, wall_now() + seconds / kSegments);
    for (std::size_t n = 0; n < kMaxSegmentReps; ++n) {
      const double now = wall_now();
      if (now >= end ? u.reps.size() >= kMinReps : now >= seg_end) break;
      u.reps.push_back(run_rep(w, spans, tally, /*guard=*/true));
    }
    w.teardown();
  }
  return u;
}

struct Traced {
  std::vector<double> wall;
  concert::CritPathReport crit;
  std::uint64_t dropped = 0;
};

/// A few reps on a machine with MachineConfig::trace on. Each rep starts from
/// empty trace rings; the first rep's trace feeds the critical-path analysis.
Traced measure_traced(Workload& w, Spans& spans, Tally& tally) {
  SpanScope s(spans, "traced");
  Traced t;
  {
    SpanScope st(spans, "setup");
    w.setup(spans, /*traced=*/true);
  }
  for (int i = 0; i < kWarmupReps; ++i) run_rep(w, spans, tally, /*guard=*/false);
  concert::Machine& m = w.machine();
  for (int i = 0; i < kTracedReps; ++i) {
    for (concert::NodeId n = 0; n < m.node_count(); ++n) m.node(n).tracer.clear();
    t.wall.push_back(run_rep(w, spans, tally, /*guard=*/true).wall_s);
    if (i == 0) {
      SpanScope cp(spans, "critpath");
      const concert::TraceDump dump = concert::dump_trace(m, !w.deterministic_engine());
      t.dropped = dump.dropped;
      t.crit = concert::analyze_critical_path(dump);
    }
  }
  w.teardown();
  return t;
}

/// Scheduler actions per rep and median rep wall time of the deterministic
/// engine.
struct SimEngine {
  double actions = 0;
  double run_s = 0;
};

/// The threaded workloads leave the deterministic engine idle, so their
/// traced run takes the sim-engine metrics from a few checked sor_sim64
/// reps on a machine of its own.
SimEngine sample_sim_engine(Spans& spans, Tally& tally) {
  SpanScope s(spans, "sim_engine");
  const std::unique_ptr<Workload> sor = make_workload("sor_sim64", 0);
  sor->setup(spans, /*traced=*/false);
  for (int i = 0; i < kWarmupReps; ++i) run_rep(*sor, spans, tally, /*guard=*/false);
  std::vector<double> wall;
  SimEngine e;
  for (int i = 0; i < kSimSampleReps; ++i) {
    const Rep r = run_rep(*sor, spans, tally, /*guard=*/false);
    wall.push_back(r.wall_s);
    e.actions = static_cast<double>(r.sim_actions);
  }
  sor->teardown();
  e.run_s = median(wall);
  return e;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median over reps of f(rep).
template <typename F>
double rep_median(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(f(r));
  return median(v);
}

double invocations(const Rep& r) {
  return static_cast<double>(r.delta.local_invokes + r.delta.remote_invokes);
}

/// High-water resident set of this process image. getrusage's ru_maxrss is
/// not used: Linux carries the parent's peak across exec into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::vector<Metric> end_to_end(const Untraced& u) {
  std::vector<double> wall;
  for (const Rep& r : u.reps) wall.push_back(r.wall_s);
  const double run_s = median(wall);
  return {
      {"setup_s", median(u.setup), "s"},
      {"run_s", run_s, "s"},
      {"run_s_p90", quantile(wall, 0.9), "s"},
      {"inv_per_s", ratio(invocations(u.reps.front()), run_s), "1/s"},
      {"cpu_s", rep_median(u.reps, [](const Rep& r) { return r.cpu_s; }), "s"},
      {"sim_instr",
       rep_median(u.reps, [](const Rep& r) { return static_cast<double>(r.sim_instr); }),
       "instr"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Untraced& u, const Traced& t,
                              double run_s, const SimEngine& sim, const LayerValues& loops) {
  using Field = std::uint64_t NodeStats::*;
  const std::vector<Rep>& reps = u.reps;
  auto get = [](const Rep& r, Field f) { return static_cast<double>(r.delta.*f); };
  auto med = [&](auto f) { return rep_median(reps, f); };
  auto count = [&](Field f) { return med([=](const Rep& r) { return get(r, f); }); };
  auto per_inv = [&](Field f) {
    return med([=](const Rep& r) { return ratio(get(r, f), invocations(r)); });
  };
  // share of `part` in `part + rest`
  auto share = [&](Field part, Field rest) {
    return med([=](const Rep& r) { return ratio(get(r, part), get(r, part) + get(r, rest)); });
  };
  const double seeds = static_cast<double>(w.seed_msgs());
  const double span = t.crit.span_us;
  std::vector<Metric> out = {
      {"sim.actions", sim.actions, "count"},
      {"sim.ns_per_action", ratio(sim.run_s * 1e9, sim.actions), "ns"},
      {"call.stack_hit_frac",
       med([&](const Rep& r) {
         return ratio(get(r, &NodeStats::stack_completions), get(r, &NodeStats::stack_calls));
       }),
       "frac"},
      {"call.fallbacks", count(&NodeStats::fallbacks), "count"},
      {"ctx.per_inv", per_inv(&NodeStats::contexts_allocated), "ctx/inv"},
      {"ctx.recycle_frac", share(&NodeStats::ctx_recycled, &NodeStats::ctx_fresh), "frac"},
      {"payload.hit_frac",
       med([&](const Rep& r) {
         return ratio(get(r, &NodeStats::payload_pool_hits), get(r, &NodeStats::payload_acquires));
       }),
       "frac"},
      {"heap.allocs_per_inv",
       med([](const Rep& r) { return ratio(static_cast<double>(r.heap_allocs), invocations(r)); }),
       "allocs/inv"},
      {"inbox.mean_batch", med([](const Rep& r) { return r.delta.mean_inbox_batch(); }),
       "msgs/batch"},
      {"thr.parks", count(&NodeStats::inbox_parks), "count"},
      {"thr.park_wake_frac",
       med([&](const Rep& r) {
         return ratio(get(r, &NodeStats::park_wakeups), get(r, &NodeStats::inbox_parks));
       }),
       "frac"},
      {"msgs.per_inv", per_inv(&NodeStats::msgs_sent), "msgs/inv"},
      {"bytes.per_inv", per_inv(&NodeStats::bytes_sent), "bytes/inv"},
      {"loc.hit_frac", share(&NodeStats::loc_cache_hits, &NodeStats::loc_cache_misses), "frac"},
      // Messages that are neither an invocation's own send, a reply, nor a
      // seed the benchmark injected: re-routes of stale names.
      {"loc.reroute_msgs_per_inv",
       med([&](const Rep& r) {
         const double other = get(r, &NodeStats::msgs_sent) - get(r, &NodeStats::remote_invokes) -
                              get(r, &NodeStats::replies_sent) - seeds;
         return ratio(other, invocations(r));
       }),
       "msgs/inv"},
      {"critpath.compute_frac", ratio(t.crit.compute_us, span), "frac"},
      {"critpath.network_frac", ratio(t.crit.network_us, span), "frac"},
      {"critpath.wait_frac", ratio(t.crit.wait_us, span), "frac"},
      {"critpath.sched_frac", ratio(t.crit.sched_us, span), "frac"},
      {"trace.overhead_frac", ratio(median(t.wall), run_s) - 1.0, "frac"},
  };
  for (const auto& [name, value] : loops) {
    out.push_back({name, value, name.substr(name.rfind('_') + 1)});  // ns, us or instr
  }
  return out;
}

void write_metrics(std::ostream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << quoted(ms[i].name) << ": {\"value\": " << num(ms[i].value)
       << ", \"unit\": " << quoted(ms[i].unit) << "}";
  }
  os << "}";
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::cout << "  " << m.name << std::string(m.name.size() < 28 ? 28 - m.name.size() : 1, ' ')
              << num(m.value) << " " << m.unit << "\n";
  }
}

int usage() {
  std::cerr << "usage: perfbench --workload sor_sim64|em3d_thr3|churn_thr2 --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--out") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w) return usage();

  Spans spans(trace == 1);
  Tally tally;
  const Untraced u = measure(*w, seconds, spans, tally);
  const std::vector<Metric> e2e = end_to_end(u);
  std::vector<Metric> layers;
  if (trace == 1) {
    const Traced t = measure_traced(*w, spans, tally);
    if (t.dropped > 0) tally.fail("trace rings dropped " + std::to_string(t.dropped) + " records");
    const SimEngine sim =
        w->deterministic_engine()
            ? SimEngine{static_cast<double>(u.reps.front().sim_actions), e2e[1].value}
            : sample_sim_engine(spans, tally);
    const LayerValues loops = run_layer_loops(spans);
    layers = per_layer(*w, u, t, e2e[1].value, sim, loops);
    const std::string path =
        out_dir + "/spans-" + workload + "-seed" + std::to_string(seed) + ".json";
    std::ofstream os(path);
    spans.write_json(os);
    if (!os) tally.fail("cannot write " + path);
  }

  std::cout << "workload " << workload << ", seed " << seed << ", " << u.reps.size()
            << " timed reps, " << tally.attempted << " attempted, " << tally.failed
            << " failed\n";
  print_table("end-to-end", e2e);
  if (trace == 1) print_table("per-layer", layers);
  for (const std::string& f : tally.failures) std::cout << "FAILED: " << f << "\n";

  const bool correct = tally.failed == 0 && tally.failures.empty();
  std::ostringstream js;
  js << "{\"workload\": " << quoted(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << trace << ", \"input_key\": " << quoted(w->input_key())
     << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"timed_reps\": " << u.reps.size()
     << ", \"compiler\": " << quoted(__VERSION__)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << ", \"end_to_end\": ";
  write_metrics(js, e2e);
  js << ", \"per_layer\": ";
  write_metrics(js, layers);
  js << ", \"counts\": {";
  for (std::size_t i = 0; i < tally.reference.size(); ++i) {
    js << (i ? ", " : "") << quoted(tally.reference[i].first) << ": " << tally.reference[i].second;
  }
  js << "}, \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    js << (i ? ", " : "") << quoted(tally.failures[i]);
  }
  js << "]}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
