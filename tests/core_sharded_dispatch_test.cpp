// Sharded dispatch: the engine loop driving a ShardPool (a prefetch thread
// plus N shard threads) must be observationally identical to the serial
// loop — same -k byte stream, same joblog contract, same retry and halt
// semantics — while the per-shard DispatchCounters still balance after the
// merge.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/dag_source.hpp"
#include "core/engine.hpp"
#include "core/joblog.hpp"
#include "core/signal_coordinator.hpp"
#include "exec/local_executor.hpp"
#include "invariants.hpp"

namespace parcl::core {
namespace {

std::vector<ArgVector> numbered_inputs(int count) {
  std::vector<ArgVector> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) inputs.push_back({std::to_string(i)});
  return inputs;
}

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" +
         std::to_string(::getpid());
}

Options sharded_options(std::size_t dispatchers) {
  Options options;
  options.jobs = 8;
  options.dispatchers = dispatchers;
  return options;
}

TEST(DispatchCounters, MergeSumsEveryField) {
  DispatchCounters a, b;
  a.spawns = 3;           b.spawns = 5;
  a.direct_execs = 1;     b.direct_execs = 2;
  a.spawn_seconds = 0.25; b.spawn_seconds = 0.75;
  a.reaps = 3;            b.reaps = 5;
  a.reap_sweeps = 1;      b.reap_sweeps = 0;
  a.polls = 10;           b.polls = 20;
  a.poll_events = 4;      b.poll_events = 6;
  a.exit_wakeups = 2;     b.exit_wakeups = 3;
  a.poll_wait_seconds = 1.5; b.poll_wait_seconds = 0.5;
  a.deferred = 1;         b.deferred = 2;
  a.drained = 0;          b.drained = 7;
  a.escalated = 2;        b.escalated = 1;
  a.host_failures = 1;    b.host_failures = 1;
  a.rescheduled = 1;      b.rescheduled = 0;
  a.hedges_launched = 2;  b.hedges_launched = 1;
  a.hedges_won = 1;       b.hedges_won = 0;
  a.hedges_lost = 1;      b.hedges_lost = 1;
  a.quarantines = 0;      b.quarantines = 1;
  a.merge(b);
  EXPECT_EQ(a.spawns, 8u);
  EXPECT_EQ(a.direct_execs, 3u);
  EXPECT_DOUBLE_EQ(a.spawn_seconds, 1.0);
  EXPECT_EQ(a.reaps, 8u);
  EXPECT_EQ(a.reap_sweeps, 1u);
  EXPECT_EQ(a.polls, 30u);
  EXPECT_EQ(a.poll_events, 10u);
  EXPECT_EQ(a.exit_wakeups, 5u);
  EXPECT_DOUBLE_EQ(a.poll_wait_seconds, 2.0);
  EXPECT_EQ(a.deferred, 3u);
  EXPECT_EQ(a.drained, 7u);
  EXPECT_EQ(a.escalated, 3u);
  EXPECT_EQ(a.host_failures, 2u);
  EXPECT_EQ(a.rescheduled, 1u);
  EXPECT_EQ(a.hedges_launched, 3u);
  EXPECT_EQ(a.hedges_won, 1u);
  EXPECT_EQ(a.hedges_lost, 2u);
  EXPECT_EQ(a.quarantines, 1u);
}

TEST(ShardedDispatch, KeepOrderOutputMatchesSerialByteForByte) {
  constexpr int kJobs = 48;
  auto run_with = [&](std::size_t dispatchers) {
    Options options = sharded_options(dispatchers);
    options.output_mode = OutputMode::kKeepOrder;
    exec::LocalExecutor executor;
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    RunSummary summary = engine.run("echo line-{}", numbered_inputs(kJobs));
    EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs));
    return out.str();
  };
  std::string serial = run_with(1);
  std::string sharded = run_with(4);
  EXPECT_EQ(serial, sharded);
}

TEST(ShardedDispatch, CountersBalanceAcrossShards) {
  // The per-shard counters are plain (non-atomic) thread-local increments;
  // after the merge every started child must have been reaped and the run
  // must report the shard count it actually dispatched through.
  constexpr int kJobs = 40;
  Options options = sharded_options(4);
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo {}", numbered_inputs(kJobs));
  EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(summary.dispatch.dispatcher_threads, 4u);
  EXPECT_EQ(summary.dispatch.spawns, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(summary.dispatch.spawns, summary.dispatch.reaps);
  EXPECT_EQ(summary.start_times.size(), static_cast<std::size_t>(kJobs));
  testing::InvariantReport report;
  testing::check_run(summary, options, kJobs, report);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ShardedDispatch, BatchedJoblogRecordsEveryJobExactlyOnce) {
  constexpr int kJobs = 32;
  std::string joblog = temp_path("sharded_joblog");
  Options options = sharded_options(4);
  options.joblog_path = joblog;
  options.joblog_flush_bytes = 4096;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo {}", numbered_inputs(kJobs));
  EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs));
  EXPECT_GE(summary.dispatch.joblog_flushes, 1u);
  // Batching must coalesce writes: far fewer flushes than rows.
  EXPECT_LT(summary.dispatch.joblog_flushes, static_cast<std::uint64_t>(kJobs));
  testing::InvariantReport report;
  testing::check_joblog(joblog, summary, report);
  EXPECT_TRUE(report.ok()) << report.str();
  std::remove(joblog.c_str());
}

TEST(ShardedDispatch, RetriesStayWithinBudget) {
  // Odd inputs fail every attempt; the sharded retry path must charge the
  // same --retries budget as the serial loop, and every attempt must have
  // produced a recorded start.
  constexpr int kJobs = 12;
  Options options = sharded_options(4);
  options.retries = 3;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary =
      engine.run("exit $(( {} % 2 ))", numbered_inputs(kJobs));
  EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs / 2));
  EXPECT_EQ(summary.failed, static_cast<std::size_t>(kJobs / 2));
  std::size_t attempts = 0;
  for (const JobResult& result : summary.results) {
    if (result.status == JobStatus::kFailed) {
      EXPECT_EQ(result.attempts, 3u);
    }
    if (result.status == JobStatus::kSuccess) {
      EXPECT_EQ(result.attempts, 1u);
    }
    attempts += result.attempts;
  }
  EXPECT_EQ(summary.dispatch.spawns, attempts);
  EXPECT_EQ(summary.dispatch.reaps, attempts);
  EXPECT_EQ(summary.start_times.size(), attempts);
  testing::InvariantReport report;
  testing::check_run(summary, options, kJobs, report);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ShardedDispatch, TimeoutEnforcedPerShard) {
  // The engine loop owns every deadline; its kill must reach whichever
  // shard hosts the job.
  Options options = sharded_options(4);
  options.jobs = 4;
  options.timeout_seconds = 0.2;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("sleep 30 '{}'", numbered_inputs(4));
  EXPECT_EQ(summary.failed, 4u);
  for (const JobResult& result : summary.results) {
    EXPECT_EQ(result.status, JobStatus::kTimedOut);
    EXPECT_LT(result.runtime(), 5.0);
  }
  testing::InvariantReport report;
  testing::check_run(summary, options, 4, report);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ShardedDispatch, HaltNowStopsAllShards) {
  // halt now,fail=1: the engine must kill in-flight jobs on every shard,
  // not only the one that saw the failure.
  Options options = sharded_options(4);
  options.jobs = 8;
  options.halt = HaltPolicy::parse("now,fail=1");
  options.quote_args = false;  // args are whole shell commands here
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  std::vector<ArgVector> inputs;
  inputs.push_back({"sleep 0.1; false"});
  for (int i = 0; i < 15; ++i) inputs.push_back({"sleep 30"});
  RunSummary summary = engine.run("{}", std::move(inputs));
  EXPECT_TRUE(summary.halted);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_GE(summary.killed + summary.skipped, 1u);
  EXPECT_EQ(summary.succeeded, 0u);
  testing::InvariantReport report;
  testing::check_run(summary, options, 16, report);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ShardedDispatch, ResumeSkipsLoggedSeqs) {
  constexpr int kJobs = 24;
  std::string joblog = temp_path("sharded_resume");
  Options options = sharded_options(4);
  options.joblog_path = joblog;
  exec::LocalExecutor executor;
  {
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    RunSummary first = engine.run("echo {}", numbered_inputs(kJobs));
    ASSERT_EQ(first.succeeded, static_cast<std::size_t>(kJobs));
  }
  options.resume = true;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary second = engine.run("echo {}", numbered_inputs(kJobs));
  EXPECT_EQ(second.skipped, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(second.succeeded, 0u);
  // Exactly-once across the pair: nothing re-ran, nothing was lost.
  testing::InvariantReport report;
  testing::check_joblog(joblog, second, report);
  // second's results are all kSkipped, so check_joblog would expect no
  // rows; instead assert the log still holds one row per seq.
  std::vector<JoblogEntry> entries = read_joblog(joblog);
  EXPECT_EQ(entries.size(), static_cast<std::size_t>(kJobs));
  std::remove(joblog.c_str());
}

TEST(ShardedDispatch, InterruptDrainQuiescesEveryShard) {
  // First SIGINT: stop dispatching, let the in-flight jobs on all four
  // shards finish, record them in the joblog exactly once. The run must
  // report the drain signal and never start post-signal jobs.
  constexpr int kJobs = 32;
  std::string joblog = temp_path("sharded_drain");
  Options options = sharded_options(4);
  options.jobs = 4;
  options.joblog_path = joblog;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  SignalCoordinator signals;
  engine.set_signal_coordinator(&signals);
  std::atomic<int> seen{0};
  engine.set_result_callback([&](const JobResult&) {
    if (seen.fetch_add(1) == 3) signals.notify(SIGINT);
  });
  RunSummary summary =
      engine.run("sleep 0.05; echo {}", numbered_inputs(kJobs));
  EXPECT_EQ(summary.interrupt_signal, SIGINT);
  EXPECT_GE(summary.succeeded, 4u);
  EXPECT_GT(summary.skipped, 0u);
  EXPECT_EQ(summary.succeeded + summary.failed + summary.killed +
                summary.skipped,
            static_cast<std::size_t>(kJobs));
  testing::InvariantReport report;
  testing::check_joblog(joblog, summary, report);
  EXPECT_TRUE(report.ok()) << report.str();
  std::remove(joblog.c_str());
}

TEST(ShardedDispatch, SecondInterruptWalksTermseqAfterQuiesce) {
  // Second SIGINT escalates --termseq; a signal queued behind a start on a
  // shard's inbox must still reach that child, and stubborn children must
  // still die via KILL.
  Options options = sharded_options(4);
  options.jobs = 4;
  options.term_seq = "TERM,100,KILL";
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  SignalCoordinator signals;
  engine.set_signal_coordinator(&signals);
  std::atomic<bool> fired{false};
  engine.set_result_callback([&](const JobResult&) {
    if (!fired.exchange(true)) {
      signals.notify(SIGINT);
      signals.notify(SIGINT);
    }
  });
  std::vector<ArgVector> inputs;
  inputs.push_back({"0"});  // quick job to trigger the callback
  for (int i = 1; i < 8; ++i) inputs.push_back({"31"});
  RunSummary summary = engine.run("sleep {}", std::move(inputs));
  EXPECT_EQ(summary.interrupt_signal, SIGINT);
  // Long sleepers must have been killed by the escalation, not waited out.
  EXPECT_EQ(summary.succeeded + summary.failed + summary.killed +
                summary.skipped,
            8u);
  EXPECT_GT(summary.killed + summary.failed, 0u);
  EXPECT_TRUE(testing::no_unreaped_children());
}

TEST(ShardedDispatch, ChildrenInheritOnlyTheirStdio) {
  // Four shards spawn concurrently while each holds pipe ends and pidfds of
  // its own in-flight children. Every child must see fds 0-2 and nothing
  // else but the directory fd ls opens (3): a sibling's pipe end or pidfd
  // leaking across a concurrent spawn shows up as an extra entry. Fds this
  // test process inherited from its launcher are not the engine's, so they
  // are marked close-on-exec first.
  if (DIR* dir = opendir("/proc/self/fd")) {
    while (dirent* entry = readdir(dir)) {
      int fd = std::atoi(entry->d_name);
      if (fd > 2 && fd != dirfd(dir)) fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    closedir(dir);
  }
  constexpr int kJobs = 200;
  Options options = sharded_options(4);
  options.jobs = 16;
  options.output_mode = OutputMode::kKeepOrder;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("/usr/bin/env JOB={} /bin/ls /proc/self/fd",
                                  numbered_inputs(kJobs));
  EXPECT_EQ(summary.succeeded, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(summary.dispatch.dispatcher_threads, 4u);
  std::string expected;
  for (int i = 0; i < kJobs; ++i) expected += "0\n1\n2\n3\n";
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(err.str(), "");
}

TEST(ShardedDispatch, AutoModeStaysSerialForSmallRuns) {
  // dispatchers == 0 only engages sharding when there is enough work to
  // amortize the threads; a 2-slot run must stay on the serial loop.
  Options options;
  options.jobs = 2;
  options.dispatchers = 0;
  exec::LocalExecutor executor;
  std::ostringstream out, err;
  Engine engine(options, executor, out, err);
  RunSummary summary = engine.run("echo {}", numbered_inputs(4));
  EXPECT_EQ(summary.succeeded, 4u);
  EXPECT_EQ(summary.dispatch.dispatcher_threads, 0u);
}

// Features that need one globally ordered decision per start (or the whole
// job list up front) run on the same engine loop at any --dispatchers: each
// must engage all four shards and produce what the serial loop produces.
class ShardedFeature : public ::testing::TestWithParam<std::string> {
 protected:
  struct Run {
    RunSummary summary;
    std::string out;
  };

  static Run run_with(const std::string& feature, std::size_t dispatchers) {
    constexpr int kJobs = 16;
    Options options = sharded_options(dispatchers);
    options.output_mode = OutputMode::kKeepOrder;
    std::string command = "echo job-{}";
    if (feature == "delay") {
      options.delay_seconds = kDelay;
    } else if (feature == "timeout_percent") {
      // One straggler among uniform jobs: killed at 2x the median runtime.
      options.timeout_percent = 200.0;
      command = "if [ {} -eq 15 ]; then sleep 5; else sleep 0.1; fi; echo job-{}";
    } else if (feature == "halt_percent") {
      // The last eight jobs fail together; the eighth failure reaches 50%
      // when nothing else is left running, so the halt is deterministic.
      options.halt = HaltPolicy::parse("now,fail=50%");
      command = "echo job-{}; [ {} -lt 8 ] || { sleep 0.2; exit 1; }";
    } else if (feature == "shuf") {
      options.shuffle = true;
      options.shuffle_seed = 7;
    } else if (feature == "memfree") {
      options.memfree_bytes = 1;
    }
    exec::LocalExecutor executor;
    std::ostringstream out, err;
    Engine engine(options, executor, out, err);
    Run run;
    if (feature == "then") {
      VectorSource upstream(numbered_inputs(kJobs / 2));
      std::vector<StageSpec> stages(2);
      stages[0].command = "echo first-{}";
      stages[1].command = "echo second-{}";
      StageChainSource chain(upstream, std::move(stages));
      run.summary = engine.run_source(command, chain);
    } else {
      run.summary = engine.run(command, numbered_inputs(kJobs));
    }
    run.out = out.str();
    return run;
  }

  static constexpr double kDelay = 0.02;
};

TEST_P(ShardedFeature, MatchesSerialAtFourDispatchers) {
  Run serial = run_with(GetParam(), 1);
  Run sharded = run_with(GetParam(), 4);
  EXPECT_EQ(serial.summary.dispatch.dispatcher_threads, 0u);
  EXPECT_EQ(sharded.summary.dispatch.dispatcher_threads, 4u);
  EXPECT_EQ(sharded.out, serial.out);
  EXPECT_EQ(sharded.summary.total, serial.summary.total);
  EXPECT_EQ(sharded.summary.succeeded, serial.summary.succeeded);
  EXPECT_EQ(sharded.summary.failed, serial.summary.failed);
  EXPECT_EQ(sharded.summary.killed, serial.summary.killed);
  EXPECT_EQ(sharded.summary.skipped, serial.summary.skipped);
  EXPECT_EQ(sharded.summary.halted, serial.summary.halted);
  if (GetParam() == "delay") {
    const std::vector<double>& starts = sharded.summary.start_times;
    ASSERT_EQ(starts.size(), 16u);
    for (std::size_t i = 1; i < starts.size(); ++i) {
      EXPECT_GE(starts[i] - starts[i - 1], kDelay - 1e-9) << "start " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Features, ShardedFeature,
                         ::testing::Values("delay", "timeout_percent", "halt_percent",
                                           "shuf", "memfree", "then"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace parcl::core
