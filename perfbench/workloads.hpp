// The benchmark's three workloads. Each one builds a fresh machine and world
// on setup(), runs one quiescent rep of its kernel per run() (the timed
// region), and checks the rep's outputs in check(), outside the timing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"
#include "machine/machine.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Machine construction, method registration + registry().finalize(), and
  /// world build, each under its own span; nothing else, since the caller
  /// times it as setup_s. `traced` turns on
  /// MachineConfig::trace for the new machine.
  virtual void setup(Spans& spans, bool traced) = 0;
  /// Destroys the machine and world built by setup().
  virtual void teardown() = 0;
  /// Untimed preparation of the next rep's inputs.
  virtual void prepare() {}
  /// One quiescent run of the kernel. False when a driver did not complete.
  virtual bool run() = 0;
  /// Checks the outputs of the rep just run.
  virtual bool check() = 0;

  virtual concert::Machine& machine() = 0;
  /// Deterministic-engine scheduler actions so far (0 on the threaded engine).
  virtual std::uint64_t sim_actions() const { return 0; }
  /// Whether every NodeStats count repeats exactly from rep to rep (true on
  /// the deterministic engine). Otherwise only invocations, messages and
  /// the cost-model instruction count are guarded.
  virtual bool deterministic_engine() const { return false; }
  /// Invoke messages the benchmark itself sends per rep to start the kernel.
  virtual std::uint64_t seed_msgs() const = 0;
  /// Identifies the inputs the guarded counts depend on (the exact-count
  /// ledger compares runs with equal keys).
  virtual std::string input_key() const = 0;
};

/// "sor_sim64", "em3d_thr3" or "churn_thr2"; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
