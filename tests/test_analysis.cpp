#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/registry.hpp"

namespace concert {
namespace {

// Dummy code versions for registry declarations.
Context* dummy_seq(Node&, Value*, const CallerInfo&, GlobalRef, const Value*, std::size_t) {
  return nullptr;
}
void dummy_par(Node&, Context&) {}

MethodDecl decl(const char* name, bool blocks = false, bool uses_cont = false) {
  MethodDecl d;
  d.name = name;
  d.seq = dummy_seq;
  d.par = dummy_par;
  d.blocks_locally = blocks;
  d.uses_continuation = uses_cont;
  return d;
}

TEST(Analysis, PureLeafIsNonBlocking) {
  MethodRegistry reg;
  MethodId leaf = reg.declare(decl("leaf"));
  reg.finalize();
  EXPECT_EQ(reg.schema(leaf), Schema::NonBlocking);
  EXPECT_FALSE(reg.info(leaf).may_block);
}

TEST(Analysis, LocallyBlockingIsMayBlock) {
  MethodRegistry reg;
  MethodId m = reg.declare(decl("blocker", /*blocks=*/true));
  reg.finalize();
  EXPECT_EQ(reg.schema(m), Schema::MayBlock);
}

TEST(Analysis, BlockingPropagatesUpCallChain) {
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  MethodId b = reg.declare(decl("b"));
  MethodId c = reg.declare(decl("c", /*blocks=*/true));
  reg.add_callee(a, b);
  reg.add_callee(b, c);
  reg.finalize();
  EXPECT_EQ(reg.schema(a), Schema::MayBlock);
  EXPECT_EQ(reg.schema(b), Schema::MayBlock);
  EXPECT_EQ(reg.schema(c), Schema::MayBlock);
}

TEST(Analysis, NonBlockingSubgraphStaysNonBlocking) {
  MethodRegistry reg;
  MethodId top = reg.declare(decl("top", /*blocks=*/true));
  MethodId helper = reg.declare(decl("helper"));
  MethodId leaf = reg.declare(decl("leaf"));
  reg.add_callee(top, helper);
  reg.add_callee(helper, leaf);
  reg.finalize();
  // The callee subgraph is not polluted by its blocking caller.
  EXPECT_EQ(reg.schema(top), Schema::MayBlock);
  EXPECT_EQ(reg.schema(helper), Schema::NonBlocking);
  EXPECT_EQ(reg.schema(leaf), Schema::NonBlocking);
}

TEST(Analysis, RecursionWithoutBlockingIsNonBlocking) {
  MethodRegistry reg;
  MethodId f = reg.declare(decl("f"));
  reg.add_callee(f, f);
  reg.finalize();
  EXPECT_EQ(reg.schema(f), Schema::NonBlocking);
}

TEST(Analysis, MutualRecursionFixpoint) {
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  MethodId b = reg.declare(decl("b"));
  MethodId c = reg.declare(decl("c", /*blocks=*/true));
  reg.add_callee(a, b);
  reg.add_callee(b, a);
  reg.add_callee(b, c);
  reg.finalize();
  EXPECT_EQ(reg.schema(a), Schema::MayBlock);
  EXPECT_EQ(reg.schema(b), Schema::MayBlock);
}

TEST(Analysis, ContinuationUserIsCP) {
  MethodRegistry reg;
  MethodId m = reg.declare(decl("store", false, /*uses_cont=*/true));
  reg.finalize();
  EXPECT_EQ(reg.schema(m), Schema::ContinuationPassing);
  // CP implies its caller must treat it as blocking (it can defer the reply).
  EXPECT_TRUE(reg.info(m).may_block);
}

TEST(Analysis, ForwardingMakesBothEndsCP) {
  MethodRegistry reg;
  MethodId fwd = reg.declare(decl("fwd"));
  MethodId tgt = reg.declare(decl("tgt"));
  reg.add_callee(fwd, tgt, /*forwards=*/true);
  reg.finalize();
  EXPECT_EQ(reg.schema(fwd), Schema::ContinuationPassing);
  EXPECT_EQ(reg.schema(tgt), Schema::ContinuationPassing);
}

TEST(Analysis, SelfForwardingChainIsCP) {
  MethodRegistry reg;
  MethodId chain = reg.declare(decl("chain"));
  reg.add_callee(chain, chain, /*forwards=*/true);
  reg.finalize();
  EXPECT_EQ(reg.schema(chain), Schema::ContinuationPassing);
}

TEST(Analysis, PlainCallOfCPDoesNotInfectCaller) {
  MethodRegistry reg;
  MethodId barrier = reg.declare(decl("barrier", false, /*uses_cont=*/true));
  MethodId user = reg.declare(decl("user"));
  reg.add_callee(user, barrier);
  reg.finalize();
  EXPECT_EQ(reg.schema(barrier), Schema::ContinuationPassing);
  // The caller builds a fresh CallerInfo at the call site; it only becomes
  // MayBlock (the CP callee can defer its reply).
  EXPECT_EQ(reg.schema(user), Schema::MayBlock);
}

TEST(Registry, EffectiveSchemaUnderHybrid1) {
  MethodRegistry reg;
  MethodId leaf = reg.declare(decl("leaf"));
  reg.finalize();
  EXPECT_EQ(reg.effective_schema(leaf, ExecMode::Hybrid3), Schema::NonBlocking);
  EXPECT_EQ(reg.effective_schema(leaf, ExecMode::Hybrid1), Schema::ContinuationPassing);
  EXPECT_EQ(reg.effective_schema(leaf, ExecMode::SeqOpt), Schema::NonBlocking);
}

TEST(Registry, Hybrid1ExemptsLockedAndMultiReturnMethods) {
  // The "1 interface" configuration degrades a method to CP only where the
  // CP convention can express it: an implicit lock is released by MB/NB
  // completion, and CP carries a single reply value.
  MethodRegistry reg;
  const MethodId blocker = reg.declare(decl("blocker", /*blocks=*/true));
  MethodDecl lk = decl("locked");
  lk.locks_self = true;
  lk.class_id = 1;
  const MethodId locked = reg.declare(std::move(lk));
  MethodDecl pair = decl("pair");
  pair.multi_return = 2;
  const MethodId two = reg.declare(std::move(pair));
  reg.finalize();
  EXPECT_EQ(reg.schema(blocker), Schema::MayBlock);
  EXPECT_EQ(reg.effective_schema(blocker, ExecMode::Hybrid1), Schema::ContinuationPassing);
  for (MethodId m : {locked, two}) {
    EXPECT_NE(reg.schema(m), Schema::ContinuationPassing) << reg.info(m).name;
    EXPECT_EQ(reg.effective_schema(m, ExecMode::Hybrid1), reg.schema(m)) << reg.info(m).name;
  }
}

TEST(Registry, DispatchTableBindsEffectiveSchemaInEveryMode) {
  // A call site takes its convention from the mode's dispatch row and from
  // nowhere else, so every row must carry effective_schema(m, mode) and the
  // method's declared code and shape.
  MethodRegistry reg;
  reg.declare(decl("leaf"));
  reg.declare(decl("blocker", /*blocks=*/true));
  reg.declare(decl("store", false, /*uses_cont=*/true));
  MethodDecl lk = decl("locked");
  lk.locks_self = true;
  lk.class_id = 1;
  reg.declare(std::move(lk));
  MethodDecl pair = decl("pair");
  pair.multi_return = 2;
  pair.arg_count = 3;
  pair.frame_slots = 4;
  reg.declare(std::move(pair));
  reg.finalize();
  for (std::size_t i = 0; i < kExecModeCount; ++i) {
    const ExecMode mode = static_cast<ExecMode>(i);
    const DispatchEntry* tab = reg.dispatch_table(mode);
    for (MethodId m = 0; m < reg.size(); ++m) {
      const MethodInfo& mi = reg.info(m);
      const DispatchEntry& e = tab[m];
      EXPECT_EQ(e.schema, reg.effective_schema(m, mode)) << mi.name << " mode " << i;
      EXPECT_TRUE(e.seq == mi.seq && e.par == mi.par) << mi.name;
      EXPECT_EQ(e.locks_self, mi.locks_self) << mi.name;
      EXPECT_EQ(e.multi_return, mi.multi_return) << mi.name;
      EXPECT_EQ(e.arg_count, mi.arg_count) << mi.name;
      EXPECT_EQ(e.frame_slots, mi.frame_slots) << mi.name;
    }
  }
}

TEST(Registry, DispatchRowsPackTwoPerCacheLine) {
  // The invoke fast path loads one row per call; at 32 bytes on a 64-bit
  // host (three code pointers plus 8 bytes of facts), neighbouring methods
  // share a 64-byte line.
  EXPECT_LE(2 * sizeof(DispatchEntry), 64u);
}

TEST(Registry, DeclareAfterFinalizeRejected) {
  MethodRegistry reg;
  reg.declare(decl("m"));
  reg.finalize();
  EXPECT_THROW(reg.declare(decl("late")), ProtocolError);
  EXPECT_THROW(reg.finalize(), ProtocolError);
}

TEST(Registry, MissingVersionsRejected) {
  MethodRegistry reg;
  MethodDecl d = decl("broken");
  d.seq = nullptr;
  EXPECT_THROW(reg.declare(std::move(d)), ProtocolError);
  MethodDecl d2 = decl("broken2");
  d2.par = nullptr;
  EXPECT_THROW(reg.declare(std::move(d2)), ProtocolError);
}

TEST(Analysis, MutualRecursionWithoutBlockingIsNonBlocking) {
  // Least-fixpoint minimality: a cycle with no blocking cause anywhere must
  // settle at NB, not get rounded up because the methods reference each other.
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  MethodId b = reg.declare(decl("b"));
  reg.add_callee(a, b);
  reg.add_callee(b, a);
  reg.finalize();
  EXPECT_EQ(reg.schema(a), Schema::NonBlocking);
  EXPECT_EQ(reg.schema(b), Schema::NonBlocking);
  EXPECT_FALSE(reg.info(a).may_block);
  EXPECT_FALSE(reg.info(b).may_block);
}

TEST(Analysis, ForwardingCycleIsCPWithoutOtherFacts) {
  // A two-method forwarding cycle: both ends of each edge need the CP
  // interface, and the seeded may_block must not leak anywhere else.
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  MethodId b = reg.declare(decl("b"));
  MethodId bystander = reg.declare(decl("bystander"));
  reg.add_callee(a, b, /*forwards=*/true);
  reg.add_callee(b, a, /*forwards=*/true);
  reg.finalize();
  EXPECT_EQ(reg.schema(a), Schema::ContinuationPassing);
  EXPECT_EQ(reg.schema(b), Schema::ContinuationPassing);
  EXPECT_EQ(reg.schema(bystander), Schema::NonBlocking);
}

TEST(Analysis, ComputeFlowFactsMatchesCommittedSchemas) {
  // The pure recomputation entry point (what the linter uses) agrees with
  // what finalize() committed, method by method.
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  MethodId b = reg.declare(decl("b", /*blocks=*/true));
  MethodId c = reg.declare(decl("c"));
  reg.add_callee(a, b);
  reg.add_callee(c, c, /*forwards=*/true);
  reg.finalize();
  const FlowFacts f = compute_flow_facts(reg.methods());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const MethodInfo& mi = reg.info(static_cast<MethodId>(i));
    EXPECT_EQ(f.may_block[i] != 0, mi.may_block) << mi.name;
    EXPECT_EQ(f.needs_continuation[i] != 0, mi.needs_continuation) << mi.name;
    EXPECT_EQ(schema_from_facts(f.may_block[i] != 0, f.needs_continuation[i] != 0), mi.schema)
        << mi.name;
  }
}

TEST(Analysis, ComputeFlowFactsToleratesDanglingEdges) {
  // Unlike finalize(), the pure recomputation must not panic on a tampered
  // table — the linter feeds it raw method vectors to diagnose them.
  std::vector<MethodInfo> methods(1);
  methods[0].name = "broken";
  methods[0].callees = {7};      // out of range
  methods[0].forwards_to = {9};  // out of range
  const FlowFacts f = compute_flow_facts(methods);
  EXPECT_EQ(f.may_block[0], 0);
  EXPECT_EQ(f.needs_continuation[0], 0);
}

TEST(Registry, AddCalleeRejectsUnregisteredEndpoints) {
  // An edge to an id that was never declared would silently corrupt the
  // blocking analysis; both endpoints must exist at wiring time.
  MethodRegistry reg;
  MethodId a = reg.declare(decl("a"));
  EXPECT_THROW(reg.add_callee(a, 99), ProtocolError);
  EXPECT_THROW(reg.add_callee(7, a), ProtocolError);
  EXPECT_THROW(reg.add_callee(a, kInvalidMethod, /*forwards=*/true), ProtocolError);
  // The registry is still usable after a rejected edge.
  reg.add_callee(a, a);
  reg.finalize();
  EXPECT_EQ(reg.schema(a), Schema::NonBlocking);
}

TEST(Registry, FindByName) {
  MethodRegistry reg;
  MethodId a = reg.declare(decl("alpha"));
  reg.declare(decl("beta"));
  reg.finalize();
  EXPECT_EQ(reg.find("alpha"), a);
  EXPECT_EQ(reg.find("nope"), kInvalidMethod);
}

}  // namespace
}  // namespace concert
