// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <memory>
#include <string>

#include "apps/seqbench/seqbench.hpp"
#include "machine/sim_machine.hpp"
#include "machine/threaded_machine.hpp"

namespace concert::testing {

inline MachineConfig test_config(ExecMode mode = ExecMode::Hybrid3,
                                 CostModel costs = CostModel::workstation()) {
  MachineConfig cfg;
  cfg.mode = mode;
  cfg.costs = costs;
  return cfg;
}

/// A single-node sim machine with the seqbench suite registered.
struct SeqBenchFixtureState {
  std::unique_ptr<SimMachine> machine;
  seqbench::Ids ids;

  explicit SeqBenchFixtureState(ExecMode mode, std::size_t nodes = 1, bool distributed = false) {
    machine = std::make_unique<SimMachine>(nodes, test_config(mode));
    ids = seqbench::register_seqbench(machine->registry(), distributed);
    machine->registry().finalize();
  }
};

struct ToolResult {
  int exit_code = -1;  ///< -1 when the process did not exit (e.g. it aborted)
  std::string out;     ///< stdout + stderr, interleaved
};

/// Spawns `tool args` through the shell and collects its output.
inline ToolResult run_tool(const std::string& tool, const std::string& args) {
  const std::string cmd = tool + " " + args + " 2>&1";
  ToolResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.out += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

}  // namespace concert::testing
