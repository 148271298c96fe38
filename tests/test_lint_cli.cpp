// concert_lint CLI tests: exit codes per diagnostic severity, --json output
// schema, and flag combinations. The binary is spawned (CONCERT_LINT_PATH is
// injected by CMake), so these tests cover argument parsing and process exit
// behavior the library-level tests cannot.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;  ///< stdout + stderr, interleaved.
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(CONCERT_LINT_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.out += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(LintCli, DefaultSweepIsCleanAndExitsZero) {
  const RunResult r = run_lint("");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  // All shipped apps appear, the demo registries never join the sweep.
  for (const char* app : {"sor", "mdforce", "em3d", "synth", "seqbench", "seqbench-dist"}) {
    EXPECT_NE(r.out.find(app), std::string::npos) << r.out;
  }
  EXPECT_EQ(r.out.find("demo"), std::string::npos) << r.out;
}

TEST(LintCli, ExitCodeIsTheErrorCount) {
  // Errors drive the exit status; warnings do not (sor under --progress is
  // error-free, so its status is 0 even though ledger lines are printed).
  EXPECT_EQ(run_lint("--deadlock deadlock-demo").exit_code, 3);
  EXPECT_EQ(run_lint("--races race-demo").exit_code, 5);
  EXPECT_EQ(run_lint("--progress progress-demo").exit_code, 4);
  EXPECT_EQ(run_lint("--progress sor").exit_code, 0);
}

TEST(LintCli, UnknownAppExitsTwo) {
  const RunResult r = run_lint("nosuchapp");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.out.find("no app matched"), std::string::npos) << r.out;
}

TEST(LintCli, UnknownOptionExitsTwo) {
  // A flag the tool does not know (here the retired --specialize) is a usage
  // error even when a real app is named beside it, not an app name that
  // matches nothing while the rest of the run goes ahead.
  const RunResult r = run_lint("--specialize sor");
  EXPECT_EQ(r.exit_code, 2) << r.out;
  EXPECT_NE(r.out.find("unknown option --specialize"), std::string::npos) << r.out;
  EXPECT_EQ(run_lint("--bogus").exit_code, 2);
}

TEST(LintCli, ListAndHelpExitZero) {
  const RunResult list = run_lint("--list");
  EXPECT_EQ(list.exit_code, 0);
  for (const char* app : {"deadlock-demo", "race-demo", "progress-demo"}) {
    EXPECT_NE(list.out.find(app), std::string::npos) << list.out;
  }
  const RunResult help = run_lint("--help");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("--progress"), std::string::npos) << help.out;
}

TEST(LintCli, ProgressPassEmitsAllThreeDiagnosticsWithWitnesses) {
  const RunResult r = run_lint("--progress progress-demo");
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.out.find("[lost-reply]"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("[double-reply]"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("[forward-livelock]"), std::string::npos) << r.out;
  // Blame-chain witnesses and ledger certificates ride along.
  EXPECT_NE(r.out.find("ping -> pong -> ping"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("progress: mini_barrier"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("UNBALANCED"), std::string::npos) << r.out;
}

TEST(LintCli, PassFlagsCompose) {
  // progress-demo has no races or deadlocks, so adding those passes must not
  // change its error count; naming all three demos sums their counts.
  EXPECT_EQ(run_lint("--races --progress progress-demo").exit_code, 4);
  EXPECT_EQ(
      run_lint("--races --progress --deadlock progress-demo race-demo deadlock-demo").exit_code,
      12);
}

TEST(LintCli, SelectivePassFiltersOtherDiagnostics) {
  // Under --deadlock, progress-demo's reply-obligation errors are filtered
  // out entirely.
  const RunResult r = run_lint("--deadlock progress-demo");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(r.out.find("lost-reply"), std::string::npos) << r.out;
}

TEST(LintCli, JsonSchemaCarriesDiagnosticsAndLedgers) {
  const RunResult r = run_lint("--progress --json progress-demo");
  EXPECT_EQ(r.exit_code, 4);
  for (const char* key :
       {"\"apps\"", "\"name\"", "\"methods\"", "\"errors\"", "\"warnings\"", "\"diagnostics\"",
        "\"code\"", "\"severity\"", "\"message\"", "\"progress_ledgers\"", "\"ledger\"",
        "\"balanced\"", "\"total_errors\": 4"}) {
    EXPECT_NE(r.out.find(key), std::string::npos) << "missing " << key << " in:\n" << r.out;
  }
  EXPECT_NE(r.out.find("\"code\": \"lost-reply\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"code\": \"double-reply\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"code\": \"forward-livelock\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"balanced\": false"), std::string::npos) << r.out;
}

TEST(LintCli, JsonDefaultSweepReportsZeroTotalErrors) {
  const RunResult r = run_lint("--json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("\"total_errors\": 0"), std::string::npos) << r.out;
}

}  // namespace
