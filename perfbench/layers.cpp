#include "layers.hpp"

#include <atomic>
#include <iterator>
#include <thread>

#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "machine/mpsc_queue.hpp"
#include "machine/network.hpp"
#include "machine/outbox.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "objects/location_cache.hpp"
#include "objects/migration.hpp"

namespace perfbench {
namespace {

using namespace concert;

constexpr int kBatches = 9;

/// Median ns/op of `body` (which performs `ops` operations) over kBatches
/// timed batches, after one untimed warm-up batch.
template <typename Body>
double ns_per_op(Body&& body, std::size_t ops) {
  body();
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = wall_now();
    body();
    v.push_back((wall_now() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(v);
}

MachineConfig loop_config(const CostModel& costs) {
  MachineConfig cfg;
  cfg.costs = costs;
  cfg.mode = ExecMode::Hybrid3;
  cfg.verify = false;
  cfg.postmortem_path.clear();
  return cfg;
}

// ---------------------------------------------------------------------------
// Call path: empty leaves of each schema, a CP method that forwards its
// continuation, a loop driver that calls one of them n times from a single
// stack frame, and a one-call driver whose callee can be forced to fall back.
// ---------------------------------------------------------------------------

MethodId g_nb, g_mb, g_cp, g_fwd, g_loop, g_fb;

Context* leaf_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  *ret = Value(std::int64_t{1});
  return nullptr;
}
void leaf_par(Node& nd, Context& ctx) { ParFrame(nd, ctx).complete(Value(std::int64_t{1})); }

Context* fwd_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                 std::size_t nargs) {
  Frame f(nd, g_fwd, self, ci, args, nargs);
  return f.forward(g_cp, self, {}, ret);
}

/// args: [callee (0 NB, 1 MB, 2 CP forwarder), n]. Returns the number of
/// calls that completed on the stack (n when nothing fell back).
Context* loop_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  Frame f(nd, g_loop, self, ci, args, nargs);
  const std::int64_t which = args[0].as_i64();
  const MethodId callee = which == 0 ? g_nb : which == 1 ? g_mb : g_fwd;
  std::int64_t done = 0;
  for (std::int64_t i = 0, n = args[1].as_i64(); i < n; ++i) {
    Value v;
    if (!f.call(callee, self, {}, 0, &v)) return f.fallback(1, {});
    done += v.as_i64();
  }
  *ret = Value(done);
  return nullptr;
}
void loop_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  if (!f.touch(2)) return;
  f.complete(Value(std::int64_t{-1}));
}

Context* fb_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                std::size_t nargs) {
  Frame f(nd, g_fb, self, ci, args, nargs);
  Value v;
  if (!f.call(g_mb, self, {}, 0, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
void fb_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(g_mb, ctx.self, {}, 0);
      if (!f.touch(1)) return;
      [[fallthrough]];
    default:
      f.complete(f.get(0));
  }
}

void register_call_methods(MethodRegistry& reg) {
  auto leaf = [&](const char* name, bool blocks, bool cont) {
    MethodDecl d;
    d.name = name;
    d.seq = leaf_seq;
    d.par = leaf_par;
    d.blocks_locally = blocks;
    d.uses_continuation = cont;
    return reg.declare(std::move(d));
  };
  g_nb = leaf("leaf_nb", false, false);
  g_mb = leaf("leaf_mb", true, false);
  g_cp = leaf("leaf_cp", false, true);
  MethodDecl d;
  d.name = "cp_forwarder";
  d.seq = fwd_seq;
  d.par = leaf_par;
  d.uses_continuation = true;
  g_fwd = reg.declare(std::move(d));
  reg.add_callee(g_fwd, g_cp, /*forwards=*/true);
  d = MethodDecl{};
  d.name = "call_loop";
  d.seq = loop_seq;
  d.par = loop_par;
  d.frame_slots = 1;
  d.arg_count = 2;
  g_loop = reg.declare(std::move(d));
  for (const MethodId c : {g_nb, g_mb, g_fwd}) reg.add_callee(g_loop, c);
  d = MethodDecl{};
  d.name = "fallback_once";
  d.seq = fb_seq;
  d.par = fb_par;
  d.frame_slots = 1;
  g_fb = reg.declare(std::move(d));
  reg.add_callee(g_fb, g_mb);
  reg.finalize();
}

struct Blob {
  std::int64_t v = 0;
};

/// Times `body` (`ops` operations of one layer) under a span named after
/// the metric, and records `<name>_ns`.
template <typename Body>
void record_ns(Spans& spans, LayerValues& out, const std::string& name, std::size_t ops,
               Body&& body) {
  SpanScope s(spans, name.c_str());
  out.emplace_back(name + "_ns", ns_per_op(body, ops));
}

void call_loops(Spans& spans, LayerValues& out) {
  SimMachine m(1, loop_config(CostModel::cm5()));
  register_call_methods(m.registry());
  Node& nd = m.node(0);
  const GlobalRef self = nd.objects().create<Blob>(0x7e57u).first;

  // One stack frame making n calls of one kind (0 NB, 1 MB, 2 CP forward).
  constexpr std::int64_t kCalls = 200000;
  auto call_loop = [&](std::int64_t which, std::int64_t n) {
    const Value r = m.run_main(0, g_loop, self, {Value(which), Value(n)});
    CONCERT_CHECK(r.as_i64() == n, "call loop " << which << " fell back");
  };
  const char* names[] = {"call.nb", "call.mb", "call.cp_forward"};
  for (std::int64_t which = 0; which < 3; ++which) {
    record_ns(spans, out, names[which], kCalls, [&] { call_loop(which, kCalls); });
  }
  for (std::int64_t which = 0; which < 2; ++which) {
    std::uint64_t c0 = nd.clock();
    call_loop(which, 0);
    const std::uint64_t harness = nd.clock() - c0;
    c0 = nd.clock();
    call_loop(which, kCalls);
    out.emplace_back(std::string(names[which]) + "_instr",
                     static_cast<double>(nd.clock() - c0 - harness) / kCalls);
  }

  // Fallback unwind: a one-call driver run with and without its MB callee
  // forced onto the heap; the difference per run is the fallback's cost.
  {
    SpanScope s(spans, "call.fallback");
    constexpr std::uint64_t kRuns = 2000;
    auto batch = [&](bool inject) {
      for (std::uint64_t i = 0; inject && i < kRuns; ++i) nd.injector().inject_at(g_mb, i);
      const std::uint64_t c0 = nd.clock();
      const double t0 = wall_now();
      for (std::uint64_t i = 0; i < kRuns; ++i) keep(m.run_main(0, g_fb, self, {}));
      const double t = wall_now() - t0;
      nd.injector().reset();
      return std::pair<double, std::uint64_t>(t, nd.clock() - c0);
    };
    const std::uint64_t fallbacks0 = nd.stats.fallbacks;
    std::vector<double> ns;
    std::uint64_t extra_instr = 0;
    for (int b = 0; b <= kBatches; ++b) {  // batch 0 warms up
      const auto plain = batch(false);
      const auto forced = batch(true);
      if (b > 0) ns.push_back((forced.first - plain.first) * 1e9 / kRuns);
      extra_instr = forced.second - plain.second;
    }
    CONCERT_CHECK(nd.stats.fallbacks - fallbacks0 == kRuns * (kBatches + 1),
                  "forced fallbacks did not all happen");
    out.emplace_back("call.fallback_ns", median(ns));
    out.emplace_back("call.fallback_instr", static_cast<double>(extra_instr) / kRuns);
  }

  const MethodId ids[8] = {g_nb, g_mb, g_cp, g_fwd, g_loop, g_fb, g_mb, g_nb};
  constexpr std::size_t kLookups = 1 << 20;
  record_ns(spans, out, "dispatch.lookup", kLookups, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kLookups; ++i) acc += nd.dispatch(ids[i & 7]).frame_slots;
    keep(acc);
  });
}

// ---------------------------------------------------------------------------
// Memory: context arena and payload pool, through the Node API.
// ---------------------------------------------------------------------------

void memory_loops(Spans& spans, LayerValues& out) {
  SimMachine m(1, loop_config(CostModel::workstation()));
  register_call_methods(m.registry());
  Node& nd = m.node(0);
  constexpr std::size_t kOps = 1 << 16;
  record_ns(spans, out, "ctx_arena.alloc_free", kOps, [&] {
    Context* live[8];
    for (std::size_t i = 0; i < kOps; i += 8) {
      for (Context*& c : live) {
        c = &nd.alloc_context(g_fb);
        c->status = ContextStatus::Running;  // as if dispatched; Ready ones may not be freed
      }
      for (Context* c : live) nd.free_context(*c);
    }
  });
  record_ns(spans, out, "payload_pool.acquire_release", kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      std::vector<Value> buf = nd.acquire_payload(2);
      buf.emplace_back(static_cast<std::int64_t>(i));
      nd.release_payload(std::move(buf));
    }
  });
}

// ---------------------------------------------------------------------------
// Inbox: MPSC push + batched drain with 1 and 3 producer threads, and the
// threaded engine's empty quiescent run (thread start, detection, join).
// ---------------------------------------------------------------------------

double inbox_ns(int producers) {
  constexpr std::size_t kPerProducer = 1 << 17;
  auto once = [&] {
    MpscQueue<Message> q;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::size_t i = 0; i < kPerProducer; ++i) q.push(Message{});
      });
    }
    while (ready.load() < producers) std::this_thread::yield();
    const std::size_t total = kPerProducer * static_cast<std::size_t>(producers);
    std::vector<Message> batch;
    batch.reserve(128);
    const double t0 = wall_now();
    go.store(true, std::memory_order_release);
    for (std::size_t got = 0; got < total;) {
      batch.clear();
      got += q.drain(std::back_inserter(batch), 128);
    }
    const double ns = (wall_now() - t0) * 1e9 / static_cast<double>(total);
    for (std::thread& t : threads) t.join();
    return ns;
  };
  once();
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) v.push_back(once());
  return median(v);
}

void inbox_loops(Spans& spans, LayerValues& out) {
  {
    SpanScope s(spans, "inbox.push_drain");
    out.emplace_back("inbox.push_drain_ns", inbox_ns(1));
  }
  {
    SpanScope s(spans, "inbox.push_drain_3p");
    out.emplace_back("inbox.push_drain_3p_ns", inbox_ns(3));
  }
  SpanScope s(spans, "thr.quiescent_run");
  ThreadedMachine m(3, loop_config(CostModel::workstation()));
  m.registry().finalize();
  constexpr int kRuns = 20;
  const double ns = ns_per_op(
      [&] {
        for (int i = 0; i < kRuns; ++i) m.run_until_quiescent();
      },
      kRuns);
  out.emplace_back("thr.quiescent_run_us", ns * 1e-3);
}

// ---------------------------------------------------------------------------
// Comms and the deterministic engine's network: outbox stage + drain, and
// SimNetwork inject + pop over 64 destinations. Messages are recycled so the
// loops time the containers, not the allocator.
// ---------------------------------------------------------------------------

void comms_loops(Spans& spans, LayerValues& out) {
  constexpr std::size_t kMsgs = 4096;
  auto make_pool = [](NodeId nodes) {
    std::vector<Message> pool(kMsgs);
    for (std::size_t i = 0; i < kMsgs; ++i) {
      pool[i] = Message::reply(static_cast<NodeId>((i * 7 + 3) % nodes),
                               static_cast<NodeId>(i % nodes), Continuation{}, Value(1));
    }
    return pool;
  };

  constexpr NodeId kDsts = 8;
  std::vector<Message> pool = make_pool(kDsts);
  Outbox ob;
  ob.reset(kDsts);
  std::vector<Message> scratch;
  record_ns(spans, out, "outbox.push_drain", kMsgs, [&] {
    for (Message& msg : pool) ob.push(std::move(msg));
    std::size_t j = 0;
    for (NodeId d = 0; d < kDsts; ++d) {
      ob.drain_into(d, scratch);
      for (Message& msg : scratch) pool[j++] = std::move(msg);
    }
  });

  constexpr NodeId kNodes = 64;
  const CostModel costs = CostModel::cm5();
  SimNetwork net(kNodes, costs);
  pool = make_pool(kNodes);
  std::uint64_t clock = 0;
  record_ns(spans, out, "simnet.inject_pop", kMsgs, [&] {
    for (Message& msg : pool) net.inject(std::move(msg), ++clock);
    std::size_t j = 0;
    for (NodeId d = 0; d < kNodes; ++d) {
      while (!net.empty_for(d)) pool[j++] = net.pop_for(d);
    }
  });
}

// ---------------------------------------------------------------------------
// Location: direct-mapped cache probes, and resolve_forwarding of stale names
// shaped like churn_thr2's (moved away and back, so one local hop leads to
// the other node).
// ---------------------------------------------------------------------------

void location_loops(Spans& spans, LayerValues& out) {
  constexpr std::uint32_t kNames = 64;
  constexpr std::size_t kOps = 1 << 18;
  LocationCache cache;
  std::vector<GlobalRef> keys;
  for (std::uint32_t i = 0; i < kNames; ++i) {
    keys.push_back(GlobalRef{0, i});
    cache.insert(keys.back(), GlobalRef{1, i});
  }
  record_ns(spans, out, "loc_cache.lookup", kOps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const GlobalRef* p = cache.lookup(keys[i % kNames]);
      acc += p != nullptr ? p->index : 0;
    }
    keep(acc);
  });

  SimMachine m(2, loop_config(CostModel::workstation()));
  m.registry().finalize();
  std::vector<GlobalRef> stale;
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const GlobalRef a = m.node(0).objects().create<Blob>(0xb10bu).first;
    migrate_object<Blob>(m, migrate_object<Blob>(m, a, 1), 0);
    stale.push_back(a);
  }
  Node& nd = m.node(0);
  record_ns(spans, out, "loc.resolve_chain", kOps, [&] {
    std::uint64_t off_node = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      off_node += resolve_forwarding(nd, stale[i % kNames]).node;
    }
    CONCERT_CHECK(off_node == kOps, "stale names did not resolve to node 1");
  });
}

}  // namespace

LayerValues run_layer_loops(Spans& spans) {
  SpanScope s(spans, "layers");
  LayerValues out;
  call_loops(spans, out);
  memory_loops(spans, out);
  inbox_loops(spans, out);
  comms_loops(spans, out);
  location_loops(spans, out);
  return out;
}

}  // namespace perfbench
