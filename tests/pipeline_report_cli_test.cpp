// The pipeline_report example's command line: --help prints usage and
// exits 0; an unknown flag, an unknown circuit, or a bad --threads value
// prints usage on stderr and exits 2; a run that fails a check exits 1
// with a diagnostic — never an uncaught CheckError abort and never a
// silently misread value.
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_io.hpp"
#include "common/subprocess.hpp"
#include "gtest/gtest.h"

namespace odcfp {
namespace {

namespace fs = std::filesystem;

struct ReportRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

ReportRun run_report(const std::string& name, std::vector<std::string> args) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "pipeline_report_cli_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  proc::SpawnOptions options;
  options.stdout_path = dir + "/out";
  options.stderr_path = dir + "/err";
  args.insert(args.begin(), ODCFP_PIPELINE_REPORT_BIN);
  std::string error;
  const pid_t pid = proc::spawn(args, options, &error);
  ReportRun run;
  EXPECT_GT(pid, 0) << error;
  if (pid <= 0) return run;
  int term_signal = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  proc::WaitResult wr = proc::WaitResult::kRunning;
  while (std::chrono::steady_clock::now() < deadline) {
    wr = proc::try_wait(pid, &run.exit_code, &term_signal);
    if (wr != proc::WaitResult::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (wr == proc::WaitResult::kRunning) proc::kill_hard(pid);
  EXPECT_EQ(wr, proc::WaitResult::kExited) << "signal " << term_signal;
  atomic_io::read_file(dir + "/out", &run.out);
  atomic_io::read_file(dir + "/err", &run.err);
  return run;
}

bool has(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(PipelineReportCli, HelpPrintsUsageAndExitsZero) {
  for (const char* flag : {"--help", "-h"}) {
    const ReportRun r = run_report(flag + 1, {flag});
    EXPECT_EQ(r.exit_code, 0) << flag;
    EXPECT_TRUE(has(r.out, "usage: pipeline_report")) << r.out;
    EXPECT_TRUE(r.err.empty()) << r.err;
  }
}

TEST(PipelineReportCli, BadArgumentsPrintUsageAndExitTwo) {
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      cases = {
          {{"--bogus"}, "unknown flag '--bogus'"},
          {{"no_such_circuit"}, "unknown circuit 'no_such_circuit'"},
          {{"--threads", "abc"}, "--threads wants an integer"},
          {{"--threads", "-1"}, "--threads wants an integer"},
          {{"--threads", "4x"}, "--threads wants an integer"},
          // Rejected while parsing, before any thread exists.
          {{"--threads", "100000"}, "--threads wants an integer"},
          {{"c17", "--threads"}, "--threads needs a value"},
      };
  int n = 0;
  for (const auto& [args, message] : cases) {
    const ReportRun r = run_report("bad" + std::to_string(n++), args);
    EXPECT_EQ(r.exit_code, 2) << args[0];
    EXPECT_TRUE(has(r.err, message)) << r.err;
    EXPECT_TRUE(has(r.err, "usage: pipeline_report")) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(PipelineReportCli, ValidArgumentsStillRun) {
  const ReportRun r = run_report("ok", {"c432", "--threads", "1", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_TRUE(has(r.out, "batch_verify")) << r.out;
  // The timing work counter, emitted once per reduction and per edition.
  EXPECT_TRUE(has(r.out, "\"timing.arrival_recomputes\"")) << r.out;
}

TEST(PipelineReportCli, TooSmallCircuitIsATypedError) {
  // c17 cannot hold the report's 8 distinct codewords: a diagnostic and
  // exit 1, not an uncaught CheckError abort.
  const ReportRun r = run_report("small", {"c17"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(has(r.err, "pipeline_report: error:")) << r.err;
}

}  // namespace
}  // namespace odcfp
