#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "apps/em3d/em3d.hpp"
#include "apps/sor/sor.hpp"
#include "core/invoke.hpp"
#include "core/wrapper.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "objects/migration.hpp"

namespace perfbench {
namespace {

using namespace concert;

MachineConfig bench_config(const CostModel& costs, bool traced) {
  MachineConfig cfg;
  cfg.costs = costs;
  cfg.mode = ExecMode::Hybrid3;
  cfg.verify = false;            // the conformance sanitizer is not what is measured
  cfg.postmortem_path.clear();   // never write files from a failing run
  cfg.trace = traced;
  return cfg;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// sor_sim64: Table 4's machine at CI scale — SOR on the deterministic engine
// with 64 nodes (8x8), a 128x128 grid, block 8, CM-5 costs, 2 iterations a rep.
// ---------------------------------------------------------------------------

class SorSim64 final : public Workload {
 public:
  SorSim64() {
    p_.n = 128;
    p_.pgrid = 8;
    p_.block = 8;
    p_.iters = 2;
  }

  void setup(Spans& spans, bool traced) override {
    {
      SpanScope s(spans, "setup.construct");
      m_ = std::make_unique<SimMachine>(p_.nodes(), bench_config(CostModel::cm5(), traced));
    }
    {
      SpanScope s(spans, "setup.finalize");
      ids_ = sor::register_sor(m_->registry(), p_);
      m_->registry().finalize();
    }
    {
      SpanScope s(spans, "setup.build");
      world_ = sor::build(*m_, ids_, p_);
    }
    reps_ = 0;
  }

  void teardown() override {
    world_ = sor::World{};
    m_.reset();
  }

  /// Every rep starts with all node clocks at the previous rep's makespan,
  /// as a fresh machine starts them all at 0. Otherwise each rep would begin
  /// from the last rep's ragged finish and its schedule, and so its
  /// simulated makespan, would differ from rep to rep.
  void prepare() override {
    const std::uint64_t now = m_->max_clock();
    for (NodeId n = 0; n < m_->node_count(); ++n) m_->node(n).advance_clock_to(now);
  }

  bool run() override { return sor::run(*m_, ids_, world_); }

  /// The grid after every rep equals sor::reference at the total iteration
  /// count since setup(), exactly.
  bool check() override {
    sor::Params total = p_;
    total.iters = p_.iters * ++reps_;
    return bitwise_equal(sor::extract(*m_, world_), sor::reference(total));
  }

  Machine& machine() override { return *m_; }
  std::uint64_t sim_actions() const override { return m_->actions(); }
  bool deterministic_engine() const override { return true; }
  std::uint64_t seed_msgs() const override { return p_.nodes(); }
  std::string input_key() const override { return "fixed"; }

 private:
  sor::Params p_;
  std::unique_ptr<SimMachine> m_;
  sor::Ids ids_;
  sor::World world_;
  int reps_ = 0;  ///< reps since setup()
};

// ---------------------------------------------------------------------------
// em3d_thr3: Table 6's irregular kernel — EM3D push on the threaded engine
// with 3 node threads, 8192 graph nodes, degree 8, local fraction 0.5,
// 4 iterations a rep. The graph comes from the seed.
// ---------------------------------------------------------------------------

class Em3dThr3 final : public Workload {
 public:
  static constexpr std::size_t kNodes = 3;

  explicit Em3dThr3(std::uint64_t seed) {
    p_.graph_nodes = 8192;
    p_.degree = 8;
    p_.iters = 4;
    p_.local_fraction = 0.5;
    p_.seed = seed;
    want_ = em3d::reference(p_, kNodes);
  }

  void setup(Spans& spans, bool traced) override {
    {
      SpanScope s(spans, "setup.construct");
      m_ = std::make_unique<ThreadedMachine>(kNodes,
                                             bench_config(CostModel::workstation(), traced));
    }
    {
      SpanScope s(spans, "setup.finalize");
      ids_ = em3d::register_em3d(m_->registry(), p_, kNodes);
      m_->registry().finalize();
    }
    {
      SpanScope s(spans, "setup.build");
      world_ = em3d::build(*m_, ids_, p_);
    }
    init_.clear();
  }

  void teardown() override {
    world_ = em3d::World{};
    m_.reset();
  }

  /// Every rep starts from the initial field values: without the restore the
  /// values grow ~1e5x per rep and overflow to inf within a few hundred
  /// iterations, after which an equality check tests nothing. The first
  /// call after setup() snapshots the values it restores.
  void prepare() override {
    if (init_.empty()) init_ = em3d::extract(*m_, world_);
    for (const GlobalRef& cref : world_.containers) {
      em3d::NodeContainer& c = m_->node(cref.node).objects().get<em3d::NodeContainer>(cref);
      for (auto& [id, g] : c.nodes) {
        g.value = init_[id];
        std::fill(g.inbox.begin(), g.inbox.end(), 0.0);
      }
    }
  }

  bool run() override { return em3d::run(*m_, ids_, world_, em3d::Version::Push); }

  /// Finite values, bit-identical to em3d::reference.
  bool check() override {
    const std::vector<double> got = em3d::extract(*m_, world_);
    for (const double v : got) {
      if (!std::isfinite(v)) return false;
    }
    return bitwise_equal(got, want_);
  }

  Machine& machine() override { return *m_; }
  std::uint64_t seed_msgs() const override { return kNodes; }
  std::string input_key() const override { return "graph_seed=" + std::to_string(p_.seed); }

 private:
  em3d::Params p_;
  std::vector<double> want_;  ///< em3d::reference after p_.iters iterations
  std::unique_ptr<ThreadedMachine> m_;
  em3d::Ids ids_;
  em3d::World world_;
  std::vector<double> init_;  ///< field values right after build (empty until prepare())
};

// ---------------------------------------------------------------------------
// churn_thr2: a 2-node ping ring on the threaded engine, 4 tokens
// circulating 20000 hops each (at 5000 hops, ~20 ms, a rep is short enough
// that host scheduling hiccups decide its 90th percentile). Every rep builds
// a fresh ring whose objects are migrated twice, so each hop resolves a
// stale name through a two-forward chain spanning both nodes.
// ---------------------------------------------------------------------------

struct PingObj {
  GlobalRef next;
};

inline constexpr std::uint32_t kPingType = 0x9107u;

MethodId g_ping = kInvalidMethod;

Context* ping_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self, const Value* args,
                  std::size_t nargs) {
  const std::int64_t hops = args[0].as_i64();
  if (hops <= 0) {
    *ret = Value(std::int64_t{1});
    return nullptr;
  }
  PingObj& obj = nd.objects().get<PingObj>(self);
  Frame f(nd, g_ping, self, ci, args, nargs);
  return f.forward(g_ping, obj.next, {Value(hops - 1)}, ret);
}

void ping_par(Node& nd, Context& ctx) {
  const std::int64_t hops = ctx.args[0].as_i64();
  Continuation k = ctx.ret;
  const GlobalRef self = ctx.self;
  nd.free_context(ctx);
  if (hops <= 0) {
    nd.reply_to(k, Value(std::int64_t{1}));
    return;
  }
  PingObj& obj = nd.objects().get<PingObj>(self);
  k.forwarded = true;
  ++nd.stats.continuations_forwarded;
  const Value next{hops - 1};
  invoke_with_continuation(nd, g_ping, obj.next, &next, 1, k);
}

void register_ping(MethodRegistry& reg) {
  MethodDecl d;
  d.name = "ping";
  d.seq = ping_seq;
  d.par = ping_par;
  d.arg_count = 1;
  g_ping = reg.declare(std::move(d));
  reg.add_callee(g_ping, g_ping, /*forwards=*/true);
}

class Churn final : public Workload {
 public:
  static constexpr std::size_t kNodes = 2;
  static constexpr std::size_t kTokens = 4;

  static constexpr std::int64_t kHops = 20000;

  void setup(Spans& spans, bool traced) override {
    {
      SpanScope s(spans, "setup.construct");
      m_ = std::make_unique<ThreadedMachine>(kNodes,
                                             bench_config(CostModel::workstation(), traced));
    }
    {
      SpanScope s(spans, "setup.finalize");
      register_ping(m_->registry());
      m_->registry().finalize();
    }
  }

  void teardown() override { m_.reset(); }

  /// A fresh two-object ring whose `next` names go stale: each object moves
  /// away and back (0 -> 1 -> 0, 1 -> 0 -> 1), leaving a two-forward chain
  /// that spans both nodes behind every original name. Fresh objects keep
  /// the chain length, and so the work per rep, constant; emptied location
  /// caches keep the earlier rings' dead names from evicting this one's.
  void prepare() override {
    for (NodeId n = 0; n < kNodes; ++n) m_->node(n).location_cache().clear();
    auto [a, pa] = m_->node(0).objects().create<PingObj>(kPingType);
    auto [b, pb] = m_->node(1).objects().create<PingObj>(kPingType);
    pa->next = b;
    pb->next = a;
    migrate_object<PingObj>(*m_, migrate_object<PingObj>(*m_, a, 1), 0);
    migrate_object<PingObj>(*m_, migrate_object<PingObj>(*m_, b, 0), 1);
    stale_[0] = a;
    stale_[1] = b;
  }

  bool run() override {
    Node& nd = m_->node(0);
    root_ = &nd.alloc_context_raw(kInvalidMethod, kTokens);
    root_->status = ContextStatus::Proxy;
    for (std::size_t k = 0; k < kTokens; ++k) root_->expect(static_cast<SlotId>(k));
    for (std::size_t k = 0; k < kTokens; ++k) {
      const GlobalRef start = stale_[k % kNodes];
      nd.send(Message::invoke(0, start.node, g_ping, start, {Value(kHops)},
                              Continuation{root_->ref(), static_cast<SlotId>(k)}));
    }
    m_->run_until_quiescent();
    return true;
  }

  /// Every token slot is filled with the ring's final reply.
  bool check() override {
    bool ok = true;
    for (std::size_t k = 0; k < kTokens; ++k) {
      const auto slot = static_cast<SlotId>(k);
      ok = ok && root_->slot_full(slot) && root_->get(slot).as_i64() == 1;
    }
    m_->node(0).free_context(*root_);
    root_ = nullptr;
    return ok;
  }

  Machine& machine() override { return *m_; }
  std::uint64_t seed_msgs() const override { return kTokens; }
  std::string input_key() const override { return "fixed"; }

 private:
  std::unique_ptr<ThreadedMachine> m_;
  GlobalRef stale_[kNodes];
  Context* root_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "sor_sim64") return std::make_unique<SorSim64>();
  if (name == "em3d_thr3") return std::make_unique<Em3dThr3>(seed);
  if (name == "churn_thr2") return std::make_unique<Churn>();
  return nullptr;
}

}  // namespace perfbench
