// The traced replay must be the CLI run with stopwatches, nothing more:
// byte-identical -k output, the same joblog rows, and the same dispatch
// topology (a decorator that dropped make_shard() would silently fall back
// to the serial loop and still produce correct output).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "traced_run.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// (seq, exit) pairs of a joblog, sorted: shards may log out of seq order.
std::vector<std::pair<std::string, std::string>> joblog_rows(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::pair<std::string, std::string>> rows;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::stringstream split(line);
    for (std::string field; std::getline(split, field, '\t');) fields.push_back(field);
    if (fields.size() >= 7) rows.emplace_back(fields[0], fields[6]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs the real CLI to completion; returns the highest thread count seen
/// in /proc while it ran (1 = the serial loop).
int run_cli(const std::vector<std::string>& argv, const std::string& out_path) {
  perfbench::Child child = perfbench::spawn(argv, true, out_path + ".stderr");
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  int max_threads = 0;
  char buffer[65536];
  ssize_t n;
  while ((n = ::read(child.stdout_fd, buffer, sizeof(buffer))) > 0) {
    out.write(buffer, n);
    std::ifstream status("/proc/" + std::to_string(child.pid) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("Threads:", 0) == 0) max_threads = std::max(max_threads, std::stoi(line.substr(8)));
    }
  }
  ::close(child.stdout_fd);
  EXPECT_EQ(perfbench::wait_exit(child.pid), 0);
  return max_threads;
}

class TraceIdentity : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("perfbench_test_" + std::to_string(::getpid()) + "_" + GetParam());
    fs::create_directories(dir_);
    std::ofstream values(dir_ / "values");
    for (int i = 1; i <= 3000; ++i) values << "v" << (i * 7919 % 100003) << "\n";
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(TraceIdentity, TracedRunMatchesCli) {
  const std::string dispatchers = GetParam();
  auto argv_for = [&](const std::string& joblog) {
    std::vector<std::string> argv = {"-j32", "-k", "--joblog", joblog, "/bin/echo {}", "::::",
                                     (dir_ / "values").string()};
    if (dispatchers != "auto") argv.insert(argv.begin(), {"--dispatchers", dispatchers});
    return argv;
  };
  std::vector<std::string> cli = {PERFBENCH_PARCL_BIN};
  for (const std::string& arg : argv_for((dir_ / "cli.joblog").string())) cli.push_back(arg);
  const int cli_threads = run_cli(cli, (dir_ / "cli.out").string());

  perfbench::TracedRunConfig config;
  config.argv = argv_for((dir_ / "traced.joblog").string());
  config.out_path = (dir_ / "traced.out").string();
  config.parcl_bin = PERFBENCH_PARCL_BIN;
  perfbench::TracedRunResult traced = perfbench::traced_cli_run(config);

  EXPECT_EQ(traced.jobs, 3000u);
  EXPECT_EQ(slurp((dir_ / "traced.out").string()), slurp((dir_ / "cli.out").string()));
  auto cli_rows = joblog_rows((dir_ / "cli.joblog").string());
  EXPECT_EQ(cli_rows.size(), 3000u);
  EXPECT_EQ(joblog_rows((dir_ / "traced.joblog").string()), cli_rows);

  // The CLI's dispatch topology, read from outside: the serial loop is one
  // thread; the sharded engine adds a reader thread and one thread per
  // dispatcher beside the main thread.
  const int traced_threads =
      static_cast<int>(traced.metrics.get("exec.local.dispatcher_threads"));
  if (dispatchers == "1") {
    EXPECT_EQ(traced_threads, 0);
  } else if (dispatchers == "4") {
    EXPECT_EQ(traced_threads, 4);
  }
  EXPECT_EQ(cli_threads, traced_threads == 0 ? 1 : traced_threads + 2);
}

// "auto" is launch_storm's shape: -j32 with the default --dispatchers.
INSTANTIATE_TEST_SUITE_P(Dispatch, TraceIdentity, ::testing::Values("1", "4", "auto"));

}  // namespace
