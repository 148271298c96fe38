// Determinism fingerprint: the simulated outcome of reduced Table 3/4/5/6
// configurations and fixed synth programs, pinned against a checked-in file.
//
// Every run goes through the deterministic engine, so its per-node final
// clocks, scheduler action count, message counts and context counts are a
// pure function of the runtime's code and cost model. Any change to any of
// them — intended (a cost-model change) or not (a scheduling or protocol
// regression) — shows up here as a line diff against
// tests/determinism_fingerprint.txt.
//
// On a mismatch the observed fingerprint is written next to the test binary
// and the failure message prints the `cp` command that accepts it; review the
// diff, then run that command to record an intentional change.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "apps/em3d/em3d.hpp"
#include "apps/mdforce/mdforce.hpp"
#include "apps/seqbench/seqbench.hpp"
#include "apps/sor/sor.hpp"
#include "apps/synth/synth.hpp"
#include "machine/sim_machine.hpp"

namespace concert {
namespace {

constexpr ExecMode kModes[] = {ExecMode::Hybrid3, ExecMode::Hybrid1, ExecMode::ParallelOnly};

MachineConfig config(ExecMode mode, const CostModel& costs) {
  MachineConfig cfg;
  cfg.mode = mode;
  cfg.costs = costs;
  return cfg;
}

/// Appends one run's record: a header naming the configuration, then one line
/// per node.
void record(std::ostream& os, const std::string& name, const SimMachine& m) {
  os << name << " actions=" << m.actions() << "\n";
  for (NodeId n = 0; n < m.node_count(); ++n) {
    const Node& nd = m.node(n);
    os << "  node " << n << " clock=" << nd.clock() << " sent=" << nd.stats.msgs_sent
       << " recv=" << nd.stats.msgs_received << " ctx=" << nd.stats.contexts_allocated << "\n";
  }
}

void table3(std::ostream& os) {
  for (ExecMode mode : kModes) {
    const std::string tag = std::string("t3 ") + exec_mode_name(mode) + " ";
    auto fresh = [&](seqbench::Ids& ids) {
      auto m = std::make_unique<SimMachine>(1, config(mode, CostModel::workstation()));
      ids = seqbench::register_seqbench(m->registry(), /*distributed=*/false);
      m->registry().finalize();
      return m;
    };
    seqbench::Ids ids;
    {
      auto m = fresh(ids);
      m->run_main(0, ids.fib, kNoObject, {Value(12)});
      record(os, tag + "fib(12)", *m);
    }
    {
      auto m = fresh(ids);
      m->run_main(0, ids.tak, kNoObject, {Value(12), Value(6), Value(3)});
      record(os, tag + "tak(12,6,3)", *m);
    }
    {
      auto m = fresh(ids);
      m->run_main(0, ids.nqueens, kNoObject, {Value(5), Value::u64(0), Value::u64(0), Value::u64(0)});
      record(os, tag + "nqueens(5)", *m);
    }
    {
      auto m = fresh(ids);
      const GlobalRef arr = seqbench::make_qsort_array(*m, 0, 200, 2024);
      m->run_main(0, ids.qsort, arr, {Value(0), Value(200)});
      record(os, tag + "qsort(200)", *m);
    }
    {
      auto m = fresh(ids);
      m->run_main(0, ids.chain, kNoObject, {Value(100)});
      record(os, tag + "chain(100)", *m);
    }
    {
      auto m = fresh(ids);
      m->run_main(0, ids.ack, kNoObject, {Value(2), Value(3)});
      record(os, tag + "ack(2,3)", *m);
    }
    {
      auto m = fresh(ids);
      m->run_main(0, ids.cheby, kNoObject, {Value(8), Value(0.99)});
      record(os, tag + "cheby(8)", *m);
    }
  }
}

void table4(std::ostream& os) {
  for (ExecMode mode : kModes) {
    for (std::size_t block : {std::size_t{1}, std::size_t{4}}) {
      for (bool tree : {false, true}) {
        sor::Params p;
        p.n = 16;
        p.pgrid = 2;
        p.iters = 2;
        p.block = block;
        p.tree_barrier = tree;
        SimMachine m(p.nodes(), config(mode, CostModel::cm5()));
        auto ids = sor::register_sor(m.registry(), p);
        m.registry().finalize();
        auto world = sor::build(m, ids, p);
        ASSERT_TRUE(sor::run(m, ids, world));
        record(os,
               std::string("t4 ") + exec_mode_name(mode) + " sor block=" + std::to_string(block) +
                   (tree ? " tree" : " flat"),
               m);
      }
    }
  }
}

void table5(std::ostream& os) {
  for (ExecMode mode : kModes) {
    for (bool spatial : {false, true}) {
      md::Params p;
      p.atoms = 96;
      p.spatial = spatial;
      SimMachine m(4, config(mode, CostModel::t3d()));
      auto ids = md::register_md(m.registry(), p, 4);
      m.registry().finalize();
      auto world = md::build(m, ids, p);
      ASSERT_TRUE(md::run(m, ids, world));
      record(os,
             std::string("t5 ") + exec_mode_name(mode) + " mdforce " +
                 (spatial ? "spatial" : "random"),
             m);
    }
  }
}

void table6(std::ostream& os) {
  for (ExecMode mode : kModes) {
    for (double loc : {0.02, 0.99}) {
      for (auto v : {em3d::Version::Pull, em3d::Version::Push, em3d::Version::Forward}) {
        em3d::Params p;
        p.graph_nodes = 64;
        p.degree = 4;
        p.iters = 2;
        p.local_fraction = loc;
        SimMachine m(4, config(mode, CostModel::cm5()));
        auto ids = em3d::register_em3d(m.registry(), p, 4);
        m.registry().finalize();
        auto world = em3d::build(m, ids, p);
        ASSERT_TRUE(em3d::run(m, ids, world, v));
        record(os,
               std::string("t6 ") + exec_mode_name(mode) + " em3d " + em3d::version_name(v) +
                   (loc > 0.5 ? " high" : " low"),
               m);
      }
    }
  }
}

void synth_seeds(std::ostream& os) {
  for (ExecMode mode : kModes) {
    for (std::uint64_t seed : {19u, 23u}) {
      SplitMix64 rng(seed);
      const synth::Program prog = synth::Program::random(rng, 8, 3);
      SimMachine m(4, config(mode, CostModel::cm5()));
      auto ids = synth::register_synth(m.registry(), prog);
      m.registry().finalize();
      auto homes = synth::place_objects(m, prog, rng);
      const Value got = synth::run(m, ids, homes, 0, 5);
      ASSERT_EQ(got.as_i64(), prog.eval(0, 5));
      record(os, std::string("synth ") + exec_mode_name(mode) + " seed=" + std::to_string(seed),
             m);
    }
  }
}

// The off-by-default scheduling switches, so their runs are pinned too.
void flag_runs(std::ostream& os) {
  {
    sor::Params p;
    p.n = 16;
    p.pgrid = 2;
    p.iters = 2;
    p.block = 4;
    MachineConfig cfg = config(ExecMode::Hybrid3, CostModel::cm5());
    cfg.merge_waves = true;
    SimMachine m(p.nodes(), cfg);
    auto ids = sor::register_sor(m.registry(), p);
    m.registry().finalize();
    auto world = sor::build(m, ids, p);
    ASSERT_TRUE(sor::run(m, ids, world));
    record(os, "flags merge_waves sor block=4", m);
  }
  {
    em3d::Params p;
    p.graph_nodes = 64;
    p.degree = 4;
    p.iters = 2;
    p.local_fraction = 0.02;
    MachineConfig cfg = config(ExecMode::Hybrid3, CostModel::cm5());
    cfg.shuffle_seed = 1;
    SimMachine m(4, cfg);
    auto ids = em3d::register_em3d(m.registry(), p, 4);
    m.registry().finalize();
    auto world = em3d::build(m, ids, p);
    ASSERT_TRUE(em3d::run(m, ids, world, em3d::Version::Push));
    record(os, "flags shuffle_seed=1 em3d Push low", m);
  }
}

std::string observed_fingerprint() {
  std::ostringstream os;
  table3(os);
  table4(os);
  table5(os);
  table6(os);
  synth_seeds(os);
  flag_runs(os);
  return os.str();
}

TEST(Fingerprint, SimulatedRunsMatchCheckedInFile) {
  const std::string observed = observed_fingerprint();
  if (::testing::Test::HasFatalFailure()) return;

  std::ifstream in(CONCERT_FINGERPRINT_GOLDEN);
  ASSERT_TRUE(in) << "missing " << CONCERT_FINGERPRINT_GOLDEN;
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == observed) return;

  std::ofstream(CONCERT_FINGERPRINT_OBSERVED) << observed;
  std::istringstream want(golden.str());
  std::istringstream got(observed);
  std::string w;
  std::string g;
  int line = 0;
  do {
    ++line;
    if (!std::getline(want, w)) w = "<end of file>";
    if (!std::getline(got, g)) g = "<end of file>";
  } while (w == g);
  ADD_FAILURE() << "simulated runs differ from the determinism fingerprint at line " << line
                << "\n  expected: " << w << "\n  observed: " << g
                << "\nThe observed fingerprint was written; if the change is intended, accept it with\n"
                << "  cp " << CONCERT_FINGERPRINT_OBSERVED << " " << CONCERT_FINGERPRINT_GOLDEN;
}

}  // namespace
}  // namespace concert
