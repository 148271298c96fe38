// concert_trace CLI and artifact-reader robustness: seeded byte mutations of
// a real traced-SOR CTRACE01 dump and of a POSTMORTEM.json must never crash
// the readers, the critical-path analysis or the tool (every mutant ends in
// a clean accept or a clean error), and the tool's summary, kind filter and
// Chrome export accept every event kind. The binary is spawned
// (CONCERT_TRACE_PATH is injected by CMake) so its own code paths are
// covered, not only the library's.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/sor/sor.hpp"
#include "machine/critpath.hpp"
#include "machine/trace.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace concert {
namespace {

using testing::run_tool;
using testing::test_config;

/// Mutants made of each artifact (the floor is 150).
constexpr int kMutants = 160;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites 1-4 random bytes. Even mutants hit anywhere in the file, odd
/// ones only its first `head` bytes, where the counts and sizes live.
std::string mutate(const std::string& src, std::size_t head, SplitMix64& rng, int i) {
  std::string m = src;
  const std::size_t span = i % 2 == 0 ? m.size() : std::min(head, m.size());
  const int flips = 1 + static_cast<int>(rng.uniform(4));
  for (int f = 0; f < flips; ++f) {
    m[rng.uniform(span)] = static_cast<char>(rng.uniform(256));
  }
  return m;
}

/// Exit statuses of a run that ended cleanly: success, or a reported error.
/// An escaped exception aborts, which is not an exit.
bool clean_exit(int code) { return code == 0 || code == 1; }

std::string traced_sor_dump() {
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.trace = true;
  const sor::Params p{16, 2, 8, 1};
  SimMachine m(p.nodes(), cfg);
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World world = sor::build(m, ids, p);
  EXPECT_TRUE(sor::run(m, ids, world));
  std::ostringstream os;
  write_binary_trace(dump_trace(m), os);
  return os.str();
}

TEST(TraceCli, MutatedTraceDumpsFailCleanly) {
  const std::string dump = traced_sor_dump();
  // Header, method table and event count: everything before the first event.
  TraceDump parsed;
  {
    std::istringstream is(dump);
    ASSERT_TRUE(read_binary_trace(is, parsed));
  }
  ASSERT_GT(parsed.events.size(), 100u);
  const std::size_t head = dump.size() - 33 * parsed.events.size();

  const std::string path = "TRACE_mutant.ctrc";
  SplitMix64 rng(0xc7ace01);
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string bytes = mutate(dump, head, rng, i);
    TraceDump d;
    std::string err;
    std::istringstream is(bytes);
    bool ok = false;
    EXPECT_NO_THROW(ok = read_binary_trace(is, d, &err)) << "mutant " << i;
    if (ok) {
      ++accepted;
      EXPECT_NO_THROW({
        const CritPathReport r = analyze_critical_path(d);
        std::ostringstream os;
        write_critpath_chrome(r, d, os);
      }) << "mutant " << i;
    } else {
      EXPECT_FALSE(err.empty()) << "mutant " << i;
    }
    write_file(path, bytes);
    const auto summary = run_tool(CONCERT_TRACE_PATH, path + " --summary");
    EXPECT_TRUE(clean_exit(summary.exit_code)) << "mutant " << i << ": " << summary.out;
    const auto crit = run_tool(CONCERT_TRACE_PATH, "critpath " + path);
    EXPECT_TRUE(clean_exit(crit.exit_code)) << "mutant " << i << ": " << crit.out;
  }
  // Most single-byte hits land in clock/wall/cause fields, which any value
  // satisfies; the reader must not reject everything either.
  EXPECT_GT(accepted, 0);
  std::remove(path.c_str());
}

TEST(TraceCli, MutatedPostmortemsFailCleanly) {
  const sor::Params p{16, 2, 8, 1};
  MachineConfig cfg = test_config(ExecMode::Hybrid3);
  cfg.verify = true;  // fills the suspended/vclock sections too
  SimMachine m(p.nodes(), cfg);
  const sor::Ids ids = sor::register_sor(m.registry(), p);
  m.registry().finalize();
  sor::World world = sor::build(m, ids, p);
  ASSERT_TRUE(sor::run(m, ids, world));
  std::ostringstream os;
  m.write_postmortem(os, "inspect");
  const std::string doc = os.str();

  const std::string path = "PM_mutant.json";
  SplitMix64 rng(0x9057);
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(doc, 256, rng, i);
    JsonValue v;
    std::string err;
    bool ok = false;
    EXPECT_NO_THROW(ok = json_parse(text, v, &err)) << "mutant " << i;
    if (!ok) {
      EXPECT_FALSE(err.empty()) << "mutant " << i;
    }
    write_file(path, text);
    const auto r = run_tool(CONCERT_TRACE_PATH, "postmortem " + path);
    EXPECT_TRUE(clean_exit(r.exit_code)) << "mutant " << i << ": " << r.out;
  }
  std::remove(path.c_str());
}

TEST(TraceCli, SummaryFilterAndChromeAcceptEveryKind) {
  TraceDump d;
  d.node_count = 2;
  d.method_names = {"m0"};
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    const TraceKind kind = static_cast<TraceKind>(k);
    d.events.push_back(TraceEvent{0, TraceRecord{10 * k, 0, 0, 0, kind, 0}});
  }
  d.events.push_back(TraceEvent{1, TraceRecord{5, 0, 0, kInvalidMethod, TraceKind::Park, 0}});
  const std::string path = "TRACE_kinds.ctrc";
  {
    std::ofstream os(path, std::ios::binary);
    write_binary_trace(d, os);
  }
  const auto summary = run_tool(CONCERT_TRACE_PATH, path + " --summary");
  ASSERT_EQ(summary.exit_code, 0) << summary.out;
  EXPECT_NE(summary.out.find("inbox_drain=1"), std::string::npos) << summary.out;
  EXPECT_NE(summary.out.find("park=2"), std::string::npos) << summary.out;

  const auto park = run_tool(CONCERT_TRACE_PATH, path + " --kind park --summary");
  ASSERT_EQ(park.exit_code, 0) << park.out;
  EXPECT_NE(park.out.find("trace: 2 events"), std::string::npos) << park.out;
  const auto drain = run_tool(CONCERT_TRACE_PATH, path + " --kind inbox_drain");
  ASSERT_EQ(drain.exit_code, 0) << drain.out;
  EXPECT_NE(drain.out.find("trace: 1 events"), std::string::npos) << drain.out;

  const std::string chrome = "TRACE_kinds.json";
  const auto exp = run_tool(CONCERT_TRACE_PATH, path + " --chrome --out " + chrome);
  ASSERT_EQ(exp.exit_code, 0) << exp.out;
  std::ifstream in(chrome);
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(ss.str(), v, &err)) << err;
  for (const char* name : {"\"inbox_drain\"", "\"park\""}) {
    EXPECT_NE(ss.str().find(name), std::string::npos) << name;
  }
  std::remove(path.c_str());
  std::remove(chrome.c_str());
}

}  // namespace
}  // namespace concert
