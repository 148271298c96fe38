// concert-verify tests: the static schema-soundness linter (src/verify/lint)
// and the dynamic conformance sanitizer (src/verify/conformance) on both
// engines.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "apps/em3d/em3d.hpp"
#include "apps/mdforce/mdforce.hpp"
#include "apps/seqbench/seqbench.hpp"
#include "apps/sor/sor.hpp"
#include "apps/synth/synth.hpp"
#include "core/analysis.hpp"
#include "core/invoke.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "verify/conformance.hpp"
#include "verify/lint.hpp"

namespace concert {
namespace {

using testing::test_config;
using verify::LintCode;
using verify::LintReport;
using verify::ViolationKind;

// ===========================================================================
// Static linter
// ===========================================================================

Context* dummy_seq(Node&, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return nullptr;
}
void dummy_par(Node&, Context&) {}

MethodInfo raw(const char* name, bool blocks = false, bool uses_cont = false) {
  MethodInfo m;
  m.name = name;
  m.seq = dummy_seq;
  m.par = dummy_par;
  m.blocks_locally = blocks;
  m.uses_continuation = uses_cont;
  return m;
}

/// Runs the analysis over a raw table so schemas are committed consistently;
/// tests then tamper with individual fields.
std::vector<MethodInfo> analyzed(std::vector<MethodInfo> methods) {
  analyze_schemas(methods);
  return methods;
}

TEST(Lint, ShippedAppRegistriesAreClean) {
  struct NamedBuild {
    const char* name;
    void (*build)(MethodRegistry&);
  };
  const NamedBuild apps[] = {
      {"sor", [](MethodRegistry& r) { sor::register_sor(r, {}); }},
      {"mdforce", [](MethodRegistry& r) { md::register_md(r, {}, 4); }},
      {"em3d", [](MethodRegistry& r) { em3d::register_em3d(r, {}, 4); }},
      {"synth",
       [](MethodRegistry& r) {
         SplitMix64 rng(42);
         synth::register_synth(r, synth::Program::random(rng, 6, 3));
       }},
      {"seqbench", [](MethodRegistry& r) { seqbench::register_seqbench(r, false); }},
      {"seqbench-dist", [](MethodRegistry& r) { seqbench::register_seqbench(r, true); }},
  };
  for (const NamedBuild& app : apps) {
    MethodRegistry reg;
    app.build(reg);
    reg.finalize();
    const LintReport report = verify::lint_registry(reg);
    EXPECT_TRUE(report.diagnostics.empty())
        << app.name << " registry not lint-clean:\n" << report.to_string();
  }
}

TEST(Lint, DanglingEdgesReportedWithoutPanicking) {
  std::vector<MethodInfo> methods = {raw("broken")};
  methods[0].callees = {5};
  methods[0].forwards_to = {7};
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::DanglingCallee));
  EXPECT_TRUE(report.has(LintCode::DanglingForward));
  EXPECT_FALSE(report.clean());
}

TEST(Lint, DuplicateCalleeIsAWarning) {
  std::vector<MethodInfo> methods = analyzed({raw("a"), raw("b")});
  methods[0].callees = {1, 1};
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::DuplicateCallee));
  EXPECT_TRUE(report.clean());  // warnings only
  EXPECT_EQ(report.warning_count(), 1u);
}

TEST(Lint, ForwardWithoutCallEdge) {
  std::vector<MethodInfo> methods = {raw("fwd", false, true), raw("tgt", false, true)};
  methods[0].schema = Schema::ContinuationPassing;
  methods[1].schema = Schema::ContinuationPassing;
  methods[0].forwards_to = {1};  // but callees stays empty
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::ForwardNotInCallees));
}

TEST(Lint, ForwardingEndpointsMustBeCP) {
  std::vector<MethodInfo> methods = {raw("fwd"), raw("tgt")};
  methods[0].callees = {1};
  methods[0].forwards_to = {1};
  methods[0].schema = Schema::MayBlock;   // should be CP
  methods[1].schema = Schema::NonBlocking;  // should be CP
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::ForwarderNotCP));
  EXPECT_TRUE(report.has(LintCode::ForwardTargetNotCP));
}

TEST(Lint, NonBlockingWithBlockingCalleeGetsBlamePath) {
  // a -> b -> c, c blocks; every schema falsified to NB.
  std::vector<MethodInfo> methods = {raw("a"), raw("b"), raw("c", /*blocks=*/true)};
  methods[0].callees = {1};
  methods[1].callees = {2};
  for (auto& m : methods) m.schema = Schema::NonBlocking;
  const LintReport report = verify::lint_methods(methods);
  const verify::Diagnostic* d = report.find(LintCode::NonBlockingBlocks);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(report.error_count(), 3u);  // all three lied
  // The diagnostic for `a` explains the full chain to the blocking cause.
  bool found_a_chain = false;
  for (const auto& diag : report.diagnostics) {
    if (diag.code == LintCode::NonBlockingBlocks && diag.method == 0) {
      EXPECT_NE(diag.message.find("a -> b -> c"), std::string::npos) << diag.message;
      found_a_chain = true;
    }
  }
  EXPECT_TRUE(found_a_chain);
}

TEST(Lint, OverConservativeSchemaIsAMismatch) {
  // Committed MB though nothing can block: the fixpoint was not minimal.
  std::vector<MethodInfo> methods = {raw("padded")};
  methods[0].schema = Schema::MayBlock;
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::SchemaMismatch));
}

TEST(Lint, ContinuationUserNotCPSuppressesGenericMismatch) {
  std::vector<MethodInfo> methods = {raw("liar", false, /*uses_cont=*/true)};
  methods[0].schema = Schema::MayBlock;  // fixpoint would say CP
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::NonBlockingUsesCont));
  // The specific diagnostic replaces the generic one for the same method.
  EXPECT_FALSE(report.has(LintCode::SchemaMismatch));
}

TEST(Lint, UnreachableCycleIsAWarning) {
  // a -> b is rooted at a; c <-> d is an island cycle no entry point reaches.
  std::vector<MethodInfo> methods = analyzed({raw("a"), raw("b"), raw("c"), raw("d")});
  methods[0].callees = {1};
  methods[2].callees = {3};
  methods[3].callees = {2};
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::UnreachableMethod));
  EXPECT_EQ(report.warning_count(), 2u);  // c and d
  EXPECT_TRUE(report.clean());
}

TEST(Lint, DuplicateNamesWarned) {
  std::vector<MethodInfo> methods = analyzed({raw("same"), raw("same")});
  const LintReport report = verify::lint_methods(methods);
  EXPECT_TRUE(report.has(LintCode::DuplicateName));
  EXPECT_TRUE(report.clean());
}

TEST(Lint, ReportFormatsOneLinePerDiagnostic) {
  std::vector<MethodInfo> methods = {raw("broken")};
  methods[0].callees = {5};
  const LintReport report = verify::lint_methods(methods);
  const std::string s = report.to_string();
  EXPECT_NE(s.find("[dangling-callee]"), std::string::npos) << s;
  EXPECT_NE(s.find("broken"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Blame chains
// ---------------------------------------------------------------------------

TEST(Blame, ShortestPathToBlockingCause) {
  // a calls both b (blocks, depth 1) and c -> d (blocks, depth 2); the
  // explanation must pick the near cause.
  std::vector<MethodInfo> methods = analyzed({
      raw("a"),
      raw("b", /*blocks=*/true),
      raw("c"),
      raw("d", /*blocks=*/true),
  });
  methods[0].callees = {2, 1};  // order must not matter: BFS finds depth-1 first
  methods[2].callees = {3};
  analyze_schemas(methods);
  const verify::BlameChain chain = verify::explain_schema(methods, 0);
  EXPECT_EQ(chain.schema, Schema::MayBlock);
  ASSERT_EQ(chain.path.size(), 2u);
  EXPECT_EQ(chain.path[0], 0u);
  EXPECT_EQ(chain.path[1], 1u);
  EXPECT_EQ(chain.reason, "blocks locally");
  EXPECT_NE(verify::format_blame(methods, chain).find("a [MB]: a -> b"), std::string::npos);
}

TEST(Blame, ContinuationPassingReasons) {
  std::vector<MethodInfo> methods = {raw("fwd"), raw("sink"), raw("user", false, true)};
  methods[0].callees = {1};
  methods[0].forwards_to = {1};
  analyze_schemas(methods);

  const verify::BlameChain fwd = verify::explain_schema(methods, 0);
  EXPECT_EQ(fwd.schema, Schema::ContinuationPassing);
  EXPECT_EQ(fwd.reason, "forwards its continuation to sink");

  const verify::BlameChain sink = verify::explain_schema(methods, 1);
  EXPECT_EQ(sink.reason, "receives a forwarded continuation from fwd");

  const verify::BlameChain user = verify::explain_schema(methods, 2);
  EXPECT_EQ(user.reason, "stores or uses its continuation");
}

TEST(Blame, NonBlockingMethodNeedsNoBlame) {
  std::vector<MethodInfo> methods = analyzed({raw("pure")});
  const verify::BlameChain chain = verify::explain_schema(methods, 0);
  EXPECT_EQ(chain.schema, Schema::NonBlocking);
  EXPECT_TRUE(chain.path.empty());
}

TEST(Blame, ReportCoversEveryNonNBMethod) {
  MethodRegistry reg;
  MethodDecl d;
  d.name = "pure";
  d.seq = dummy_seq;
  d.par = dummy_par;
  reg.declare(d);
  d.name = "blocker";
  d.blocks_locally = true;
  reg.declare(d);
  reg.finalize();
  const std::string report = verify::blame_report(reg);
  EXPECT_EQ(report.find("pure"), std::string::npos);
  EXPECT_NE(report.find("blocker [MB]"), std::string::npos) << report;
}

// ===========================================================================
// Dynamic conformance sanitizer
// ===========================================================================
//
// A tiny program with deliberate mis-declarations, selected per test:
//   helper_nb(x) = 2x                (NB leaf)
//   helper_mb(x) = x+1               (MB leaf: declared blocks_locally)
//   caller(x)    = helper_mb(x)+10   (honest: edge declared)
//   rogue(x)     = helper_mb(x)+10   (same body, edge NOT declared)
//   nb_liar()    = par version suspends though committed NB
//   liar_caller()= calls nb_liar (edge declared; used to heap-dispatch it)
//   fwd_liar(x)  = forwards to cp_sink; call edge declared, forward NOT
//   cp_sink(x)   = x (CP: declared uses_continuation)

MethodId g_helper_nb, g_helper_mb, g_caller, g_rogue, g_nb_liar, g_liar_caller, g_fwd_liar,
    g_cp_sink;

constexpr SlotId kV = 0;

Context* helper_nb_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                       std::size_t) {
  *ret = Value(args[0].as_i64() * 2);
  return nullptr;
}
void helper_nb_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(Value(ctx.args[0].as_i64() * 2));
}

Context* helper_mb_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                       std::size_t) {
  *ret = Value(args[0].as_i64() + 1);
  return nullptr;
}
void helper_mb_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(Value(ctx.args[0].as_i64() + 1));
}

template <MethodId* kSelf>
Context* plus_ten_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                      const Value* args, std::size_t nargs) {
  Frame f(nd, *kSelf, self, ci, args, nargs);
  Value v;
  if (!f.call(g_helper_mb, self, {args[0]}, kV, &v)) return f.fallback(1, {});
  *ret = Value(v.as_i64() + 10);
  return nullptr;
}
void plus_ten_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(g_helper_mb, ctx.self, {ctx.args[0]}, kV);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(Value(f.get(kV).as_i64() + 10));
      return;
    default:
      CONCERT_UNREACHABLE("plus_ten_par bad pc");
  }
}

Context* nb_liar_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value*,
                     std::size_t) {
  *ret = Value(static_cast<std::int64_t>(0));
  return nullptr;
}
void nb_liar_par(Node& nd, Context& ctx) {
  // Suspends on a future nothing will ever fill — a blocking event from a
  // method whose declared facts promised NB.
  ctx.expect(0);
  nd.suspend(ctx);
}

Context* liar_caller_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                         const Value* args, std::size_t nargs) {
  Frame f(nd, g_liar_caller, self, ci, args, nargs);
  Value v;
  if (!f.call(g_nb_liar, self, {}, kV, &v)) return f.fallback(1, {});
  *ret = v;
  return nullptr;
}
void liar_caller_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  switch (ctx.pc) {
    case 0:
      f.spawn(g_nb_liar, ctx.self, {}, kV);
      if (!f.touch(1)) return;
      [[fallthrough]];
    case 1:
      f.complete(f.get(kV));
      return;
    default:
      CONCERT_UNREACHABLE("liar_caller_par bad pc");
  }
}

Context* cp_sink_seq(Node&, Value* ret, const CallerInfo&, GlobalRef, const Value* args,
                     std::size_t) {
  *ret = args[0];
  return nullptr;
}
void cp_sink_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(ctx.args[0]);
}

Context* fwd_liar_seq(Node& nd, Value* ret, const CallerInfo& ci, GlobalRef self,
                      const Value* args, std::size_t nargs) {
  Frame f(nd, g_fwd_liar, self, ci, args, nargs);
  return f.forward(g_cp_sink, self, {args[0]}, ret);
}
void fwd_liar_par(Node& nd, Context& ctx) {
  ParFrame f(nd, ctx);
  f.complete(ctx.args[0]);
}

struct SanitizerProgram {
  std::unique_ptr<Machine> machine;

  explicit SanitizerProgram(bool threaded, ExecMode mode, bool verify_on) {
    MachineConfig cfg = test_config(mode);
    cfg.verify = verify_on;
    if (threaded) {
      machine = std::make_unique<ThreadedMachine>(1, cfg);
    } else {
      machine = std::make_unique<SimMachine>(1, cfg);
    }
    auto& reg = machine->registry();

    MethodDecl d;
    d.name = "helper_nb";
    d.seq = helper_nb_seq;
    d.par = helper_nb_par;
    d.arg_count = 1;
    g_helper_nb = reg.declare(d);

    d = MethodDecl{};
    d.name = "helper_mb";
    d.seq = helper_mb_seq;
    d.par = helper_mb_par;
    d.arg_count = 1;
    d.blocks_locally = true;
    g_helper_mb = reg.declare(d);

    d = MethodDecl{};
    d.name = "caller";
    d.seq = plus_ten_seq<&g_caller>;
    d.par = plus_ten_par;
    d.frame_slots = 1;
    d.arg_count = 1;
    g_caller = reg.declare(d);
    reg.add_callee(g_caller, g_helper_mb);  // honest

    d = MethodDecl{};
    d.name = "rogue";
    d.seq = plus_ten_seq<&g_rogue>;
    d.par = plus_ten_par;
    d.frame_slots = 1;
    d.arg_count = 1;
    // The lie: same body as `caller`, but the helper_mb edge is never
    // declared. blocks_locally keeps rogue legally MB so only the edge is
    // unsound (the analysis just never saw it).
    d.blocks_locally = true;
    g_rogue = reg.declare(d);

    d = MethodDecl{};
    d.name = "nb_liar";
    d.seq = nb_liar_seq;
    d.par = nb_liar_par;
    d.frame_slots = 1;
    g_nb_liar = reg.declare(d);  // committed NB: no facts declared

    d = MethodDecl{};
    d.name = "liar_caller";
    d.seq = liar_caller_seq;
    d.par = liar_caller_par;
    d.frame_slots = 1;
    d.blocks_locally = true;  // honest MB wrapper around the liar
    g_liar_caller = reg.declare(d);
    reg.add_callee(g_liar_caller, g_nb_liar);

    d = MethodDecl{};
    d.name = "cp_sink";
    d.seq = cp_sink_seq;
    d.par = cp_sink_par;
    d.arg_count = 1;
    d.uses_continuation = true;
    g_cp_sink = reg.declare(d);

    d = MethodDecl{};
    d.name = "fwd_liar";
    d.seq = fwd_liar_seq;
    d.par = fwd_liar_par;
    d.arg_count = 1;
    d.uses_continuation = true;  // legitimately CP
    g_fwd_liar = reg.declare(d);
    reg.add_callee(g_fwd_liar, g_cp_sink);  // call edge yes, forward edge NO

    reg.finalize();
  }
};

class SanitizerEngines : public ::testing::TestWithParam<bool> {};

TEST_P(SanitizerEngines, CleanProgramPassesWithVerifyOn) {
  SanitizerProgram p(GetParam(), ExecMode::Hybrid3, /*verify_on=*/true);
  const Value v = p.machine->run_main(0, g_caller, kNoObject, {Value(5)});
  EXPECT_EQ(v.as_i64(), 16);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.totals.calls, 0u);  // the recorder did observe the run
}

TEST_P(SanitizerEngines, UndeclaredCallEdgeCaught) {
  SanitizerProgram p(GetParam(), ExecMode::Hybrid3, /*verify_on=*/true);
  EXPECT_THROW(p.machine->run_main(0, g_rogue, kNoObject, {Value(5)}), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  const verify::Violation* v = report.find(ViolationKind::UndeclaredEdge);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, g_rogue);
  EXPECT_EQ(v->other, g_helper_mb);
  EXPECT_NE(v->message.find("rogue"), std::string::npos);
}

TEST_P(SanitizerEngines, NonBlockingMethodThatBlocksCaught) {
  // Force the nb_liar call to divert so its parallel version runs; it
  // suspends though committed NB — observable at quiescence without
  // tripping the stack path's CONCERT_UNREACHABLE first.
  SanitizerProgram p(GetParam(), ExecMode::Hybrid3, /*verify_on=*/true);
  p.machine->node(0).injector().inject_at(g_nb_liar, 0);
  EXPECT_THROW(p.machine->run_main(0, g_liar_caller, kNoObject, {}), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  const verify::Violation* v = report.find(ViolationKind::NonBlockingBlocked);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, g_nb_liar);
}

TEST(Sanitizer, ParallelOnlySuspensionsExemptFromNBCheck) {
  // ParallelOnly never consults schemas and even honest NB parallel
  // versions suspend on their children's replies there; the NB-blocked
  // check must not fire for mode-induced suspensions.
  SanitizerProgram p(/*threaded=*/false, ExecMode::ParallelOnly, /*verify_on=*/true);
  const Value v = p.machine->run_main(0, g_caller, kNoObject, {Value(5)});
  EXPECT_EQ(v.as_i64(), 16);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST_P(SanitizerEngines, UndeclaredForwardCaught) {
  SanitizerProgram p(GetParam(), ExecMode::Hybrid3, /*verify_on=*/true);
  EXPECT_THROW(p.machine->run_main(0, g_fwd_liar, kNoObject, {Value(9)}), ProtocolError);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  const verify::Violation* v = report.find(ViolationKind::UndeclaredForward);
  ASSERT_NE(v, nullptr) << report.to_string();
  EXPECT_EQ(v->method, g_fwd_liar);
  EXPECT_EQ(v->other, g_cp_sink);
  // The call edge itself was declared, so only the forward is flagged.
  EXPECT_FALSE(report.has(ViolationKind::UndeclaredEdge));
}

TEST_P(SanitizerEngines, ViolationsIgnoredWhenVerifyOff) {
  SanitizerProgram p(GetParam(), ExecMode::Hybrid3, /*verify_on=*/false);
  const Value v = p.machine->run_main(0, g_rogue, kNoObject, {Value(5)});
  EXPECT_EQ(v.as_i64(), 16);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean());  // disabled recorders observed nothing
  EXPECT_EQ(report.totals.calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SanitizerEngines, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threaded" : "Sim";
                         });

TEST(Sanitizer, Hybrid1ContinuationUseIsLegal) {
  // Under Hybrid1 an MB method legally runs the CP interface and
  // materializes continuations; the check must judge against the effective
  // schema, not the declared one.
  SanitizerProgram p(/*threaded=*/false, ExecMode::Hybrid1, /*verify_on=*/true);
  p.machine->node(0).injector().inject_at(g_helper_mb, 0);  // force the fallback path
  const Value v = p.machine->run_main(0, g_caller, kNoObject, {Value(5)});
  EXPECT_EQ(v.as_i64(), 16);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.totals.cont_uses, 0u);
}

TEST(Sanitizer, RecorderStaysOutsideTheCostModel) {
  // Same program, verify on vs off: simulated clock, message and byte
  // counts must be bit-identical — the recorder never charges the clock.
  auto run = [](bool verify_on) {
    SanitizerProgram p(/*threaded=*/false, ExecMode::Hybrid3, verify_on);
    p.machine->node(0).injector().inject_at(g_helper_mb, 0);
    const Value v = p.machine->run_main(0, g_caller, kNoObject, {Value(5)});
    EXPECT_EQ(v.as_i64(), 16);
    return std::make_tuple(p.machine->max_clock(), p.machine->total_stats().msgs_sent,
                           p.machine->total_stats().bytes_sent,
                           p.machine->total_stats().contexts_allocated);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Sanitizer, SuspensionOfHonestMBMethodIsNotFlagged) {
  SanitizerProgram p(/*threaded=*/false, ExecMode::ParallelOnly, /*verify_on=*/true);
  const Value v = p.machine->run_main(0, g_caller, kNoObject, {Value(5)});
  EXPECT_EQ(v.as_i64(), 16);
  const verify::ConformanceReport report = verify::check_conformance(*p.machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Sanitizer, ShippedAppRunsCleanUnderVerify) {
  // End-to-end: a distributed seqbench fib run with the sanitizer enforcing
  // at quiescence on a multi-node machine.
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = true;
  SimMachine machine(2, cfg);
  const seqbench::Ids ids = seqbench::register_seqbench(machine.registry(), true);
  machine.registry().finalize();
  const Value v = machine.run_main(0, ids.fib, kNoObject, {Value(10)});
  EXPECT_EQ(v.as_i64(), 55);
  const verify::ConformanceReport report = verify::check_conformance(machine);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.totals.calls, 0u);
}

// SOR on both engines in every table mode with the sanitizer on. Each call
// binds its callee's effective schema from the mode's dispatch table, so the
// NB/MB/CP checks judge exactly the convention that ran; the result must stay
// exact and the run conformant whichever engine and mode produced it.
class SorUnderVerify : public ::testing::TestWithParam<std::tuple<bool, ExecMode>> {};

TEST_P(SorUnderVerify, ExactAndConformant) {
  const auto [threaded, mode] = GetParam();
  const sor::Params p{12, 2, 2, 2};
  MachineConfig cfg = test_config(mode, CostModel::cm5());
  cfg.verify = true;
  std::unique_ptr<Machine> m;
  if (threaded) {
    m = std::make_unique<ThreadedMachine>(p.nodes(), cfg);
  } else {
    m = std::make_unique<SimMachine>(p.nodes(), cfg);
  }
  const sor::Ids ids = sor::register_sor(m->registry(), p);
  m->registry().finalize();
  sor::World world = sor::build(*m, ids, p);
  ASSERT_TRUE(sor::run(*m, ids, world));

  const auto got = sor::extract(*m, world);
  const auto want = sor::reference(p);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_DOUBLE_EQ(got[k], want[k]) << "cell " << k;
  }
  const verify::ConformanceReport report = verify::check_conformance(*m);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.totals.calls, 0u);
  EXPECT_EQ(m->live_contexts(), 0u);
  // No call path bypasses the callee's schema, so this counter never moves.
  EXPECT_EQ(m->total_stats().spec_stack_calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndModes, SorUnderVerify,
    ::testing::Combine(::testing::Bool(), ::testing::Values(ExecMode::Hybrid3, ExecMode::Hybrid1,
                                                            ExecMode::ParallelOnly)),
    [](const ::testing::TestParamInfo<std::tuple<bool, ExecMode>>& info) {
      const char* mode = "ParallelOnly";
      if (std::get<1>(info.param) == ExecMode::Hybrid3) mode = "Hybrid3";
      if (std::get<1>(info.param) == ExecMode::Hybrid1) mode = "Hybrid1";
      return std::string(std::get<0>(info.param) ? "Threaded" : "Sim") + mode;
    });

}  // namespace
}  // namespace concert
