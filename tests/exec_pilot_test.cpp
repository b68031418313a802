// End-to-end tests for the pilot-worker transport: PilotExecutor driving a
// WorkerAgent over a real socketpair (ThreadWorkerTransport), including the
// chaos rig — seeded frame faults, mid-run connection kills, worker crash
// vs. hang — and the MultiExecutor integration (heartbeat-fed health,
// transport reinstatement probes).
#include "exec/pilot_executor.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/function_executor.hpp"
#include "exec/multi_executor.hpp"
#include "exec/transport.hpp"
#include "exec/worker_agent.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace parcl::exec {
namespace {

// Shared run-count ledger so tests can assert exactly-once execution even
// across reconnects and worker respawns.
struct RunLedger {
  std::mutex mu;
  std::map<std::string, int> runs;

  TaskOutcome run(const core::ExecRequest& request) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++runs[request.command];
    }
    TaskOutcome outcome;
    outcome.stdout_data = request.command + "\n";
    return outcome;
  }

  int count(const std::string& command) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = runs.find(command);
    return it == runs.end() ? 0 : it->second;
  }
};

WorkerConfig fast_worker(RunLedger* ledger, double heartbeat = 0.02) {
  WorkerConfig config;
  config.heartbeat_interval = heartbeat;
  config.make_inner = [ledger] {
    return std::make_unique<FunctionExecutor>(
        [ledger](const core::ExecRequest& r) { return ledger->run(r); }, 4);
  };
  return config;
}

PilotSettings fast_settings(double heartbeat = 0.02) {
  PilotSettings settings;
  settings.heartbeat_interval = heartbeat;
  settings.handshake_timeout = 2.0;
  return settings;
}

core::ExecRequest request_for(std::uint64_t id, const std::string& command,
                              std::size_t slot = 1) {
  core::ExecRequest request;
  request.job_id = id;
  request.command = command;
  request.slot = slot;
  return request;
}

// Drains `count` completions within a deadline.
std::vector<core::ExecResult> collect(core::Executor& exec, std::size_t count,
                                      double deadline_seconds = 20.0) {
  std::vector<core::ExecResult> results;
  double deadline = exec.now() + deadline_seconds;
  while (results.size() < count && exec.now() < deadline) {
    if (std::optional<core::ExecResult> r = exec.wait_any(0.1)) {
      results.push_back(std::move(*r));
    }
  }
  return results;
}

TEST(PilotExecutor, RunsJobsAndReturnsOutput) {
  RunLedger ledger;
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger)),
                      fast_settings());
  for (std::uint64_t id = 1; id <= 20; ++id) {
    pilot.start(request_for(id, "job-" + std::to_string(id)));
  }
  std::vector<core::ExecResult> results = collect(pilot, 20);
  ASSERT_EQ(results.size(), 20u);
  std::set<std::uint64_t> ids;
  for (const core::ExecResult& r : results) {
    ids.insert(r.job_id);
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_FALSE(r.host_failure);
    EXPECT_EQ(r.stdout_data, "job-" + std::to_string(r.job_id) + "\n");
    EXPECT_GE(r.end_time, r.start_time);
  }
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(pilot.active_count(), 0u);
  EXPECT_EQ(pilot.counters().results_received, 20u);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    EXPECT_EQ(ledger.count("job-" + std::to_string(id)), 1);
  }
}

TEST(PilotExecutor, LargeOutputCrossesChunkBoundaries) {
  WorkerConfig config;
  config.heartbeat_interval = 0.02;
  config.make_inner = [] {
    return std::make_unique<FunctionExecutor>(
        [](const core::ExecRequest&) {
          TaskOutcome outcome;
          outcome.stdout_data.assign(3 * transport::kChunkBytes + 17, 'A');
          outcome.stderr_data.assign(transport::kChunkBytes + 1, 'B');
          return outcome;
        },
        1);
  };
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      fast_settings());
  pilot.start(request_for(1, "big"));
  std::vector<core::ExecResult> results = collect(pilot, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stdout_data.size(), 3 * transport::kChunkBytes + 17);
  EXPECT_EQ(results[0].stderr_data.size(), transport::kChunkBytes + 1);
  EXPECT_EQ(results[0].stdout_data.front(), 'A');
  EXPECT_EQ(results[0].stderr_data.back(), 'B');
}

TEST(PilotExecutor, StdinReachesTheJob) {
  WorkerConfig config;
  config.heartbeat_interval = 0.02;
  config.make_inner = [] {
    return std::make_unique<FunctionExecutor>(
        [](const core::ExecRequest& r) {
          TaskOutcome outcome;
          outcome.stdout_data = r.has_stdin ? r.stdin_data : "<none>";
          return outcome;
        },
        1);
  };
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      fast_settings());
  core::ExecRequest request = request_for(1, "cat");
  request.has_stdin = true;
  request.stdin_data = "line1\nline2\n";
  pilot.start(request);
  std::vector<core::ExecResult> results = collect(pilot, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].stdout_data, "line1\nline2\n");
}

TEST(WorkerAgent, UncapturedJobStillReturnsAValidResult) {
  // Under ssh the agent's stdout is the frame stream, so the agent captures
  // every job, even one submitted with capture_output=false: its output
  // comes back in STDOUT chunks instead of landing inside the protocol.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  WorkerConfig config;  // the production LocalExecutor runs the job
  config.heartbeat_interval = 0.05;
  WorkerAgent agent(config);
  WorkerAgent::ServeOutcome outcome = WorkerAgent::ServeOutcome::kCrashed;
  std::thread serving([&] { outcome = agent.serve(sv[1], sv[1]); });

  transport::Channel pilot(sv[0]);
  std::vector<transport::Frame> inbox;
  auto next = [&](transport::FrameType type) -> std::optional<transport::Frame> {
    double deadline = util::monotonic_seconds() + 10.0;
    while (util::monotonic_seconds() < deadline) {
      for (auto it = inbox.begin(); it != inbox.end(); ++it) {
        if (it->type != type) continue;  // heartbeats and the like
        transport::Frame frame = std::move(*it);
        inbox.erase(inbox.begin(), it + 1);
        return frame;
      }
      if (pilot.wait(10, inbox) != transport::Channel::Status::kOpen) break;
    }
    return std::nullopt;
  };
  ASSERT_TRUE(next(transport::FrameType::kHello).has_value());
  pilot.send(transport::encode_hello_ack({}));
  transport::JobSpec job;
  job.seq = 1;
  job.command = "echo uncaptured";
  job.capture_output = false;
  pilot.send(transport::encode_submit({{job}}));

  std::optional<transport::Frame> chunk = next(transport::FrameType::kStdout);
  std::optional<transport::Frame> result = next(transport::FrameType::kResult);
  ASSERT_TRUE(chunk.has_value());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(transport::decode_chunk(*chunk).data, "uncaptured\n");
  transport::ResultFrame done = transport::decode_result(*result);
  EXPECT_EQ(done.seq, 1u);
  EXPECT_EQ(done.exit_code, 0);
  EXPECT_EQ(done.stdout_chunks, 1u);

  pilot.send(transport::encode_ack({{1}}));
  pilot.send(transport::encode_drain());
  EXPECT_TRUE(next(transport::FrameType::kBye).has_value());
  serving.join();
  EXPECT_EQ(outcome, WorkerAgent::ServeOutcome::kDrained);
  EXPECT_EQ(agent.journal_size(), 0u);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(PilotExecutor, KillBeforeFlushCompletesLocally) {
  RunLedger ledger;
  PilotSettings settings = fast_settings();
  settings.submit_batch_max = 1000;  // keep the job queued, not sent
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger)),
                      settings);
  pilot.start(request_for(1, "never-sent"));
  pilot.kill(1, /*force=*/true);
  std::optional<core::ExecResult> result = pilot.wait_any(1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->term_signal, SIGKILL);
  EXPECT_EQ(ledger.count("never-sent"), 0);
}

TEST(PilotExecutor, KillRoutesToTheWorker) {
  std::atomic<bool> release{false};
  WorkerConfig config;
  config.heartbeat_interval = 0.02;
  config.make_inner = [&release] {
    return std::make_unique<FunctionExecutor>(
        [&release](const core::ExecRequest&) {
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          return TaskOutcome{};
        },
        1);
  };
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      fast_settings());
  pilot.start(request_for(1, "stuck"));
  // Let the SUBMIT land, then kill through the channel.
  (void)pilot.wait_any(0.2);
  pilot.kill(1, /*force=*/true);
  // Let the KILL frame land before the body is allowed to finish, so the
  // worker marks the job killed rather than completed.
  (void)pilot.wait_any(0.2);
  release.store(true);  // FunctionExecutor kills cooperatively
  std::vector<core::ExecResult> results = collect(pilot, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].term_signal, SIGKILL);
}

TEST(PilotExecutor, VersionMismatchPoisonsTheChannel) {
  RunLedger ledger;
  WorkerConfig config = fast_worker(&ledger);
  config.version = transport::kProtocolVersion + 1;
  PilotSettings settings = fast_settings();
  settings.reconnect_max = 2;
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      settings);
  pilot.start(request_for(1, "skewed"));
  std::vector<core::ExecResult> results = collect(pilot, 1, 10.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].host_failure);  // surfaced for free reschedule
  EXPECT_TRUE(pilot.dead());
  EXPECT_THROW(pilot.start(request_for(2, "more")), util::SystemError);
  EXPECT_EQ(ledger.count("skewed"), 0);
  // A version-skewed peer can never be probed back in.
  EXPECT_FALSE(pilot.probe_transport());
}

TEST(PilotExecutor, ChaoticFramesStillDeliverExactlyOnce) {
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    RunLedger ledger;
    PilotSettings settings = fast_settings();
    settings.faults.seed = seed;
    settings.faults.drop_prob = 0.15;
    settings.faults.duplicate_prob = 0.15;
    settings.faults.reorder_prob = 0.15;
    settings.faults.delay_prob = 0.10;
    settings.faults.delay_min_seconds = 0.005;
    settings.faults.delay_max_seconds = 0.02;
    PilotExecutor pilot(
        std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger)), settings);
    const std::size_t kJobs = 40;
    for (std::uint64_t id = 1; id <= kJobs; ++id) {
      pilot.start(request_for(id, "chaos-" + std::to_string(id)));
    }
    std::vector<core::ExecResult> results = collect(pilot, kJobs, 30.0);
    ASSERT_EQ(results.size(), kJobs) << "seed " << seed;
    std::set<std::uint64_t> ids;
    for (const core::ExecResult& r : results) {
      ids.insert(r.job_id);
      EXPECT_FALSE(r.host_failure);
      EXPECT_EQ(r.stdout_data, "chaos-" + std::to_string(r.job_id) + "\n");
    }
    EXPECT_EQ(ids.size(), kJobs) << "seed " << seed;
    for (std::uint64_t id = 1; id <= kJobs; ++id) {
      EXPECT_EQ(ledger.count("chaos-" + std::to_string(id)), 1) << "seed " << seed;
    }
    const transport::TransportFaultCounters& faults = pilot.fault_counters();
    EXPECT_GT(faults.dropped + faults.duplicated + faults.reordered + faults.delayed,
              0u)
        << "seed " << seed;
  }
}

TEST(PilotExecutor, ConnectionKillReattachesAndReplaysJournal) {
  RunLedger ledger;
  PilotSettings settings = fast_settings();
  settings.faults.seed = 3;
  settings.faults.kill_connection_after = 10;  // die mid-run
  auto transport = std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger));
  ThreadWorkerTransport* worker = transport.get();
  PilotExecutor pilot(std::move(transport), settings);
  const std::size_t kJobs = 30;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    pilot.start(request_for(id, "kill-" + std::to_string(id)));
  }
  std::vector<core::ExecResult> results = collect(pilot, kJobs, 30.0);
  ASSERT_EQ(results.size(), kJobs);
  for (const core::ExecResult& r : results) {
    EXPECT_FALSE(r.host_failure);  // the worker survived; nothing was lost
  }
  EXPECT_GE(pilot.counters().reconnects, 1u);
  EXPECT_EQ(pilot.fault_counters().connection_kills, 1u);
  // The journal carried results across the gap: every job ran exactly once.
  EXPECT_EQ(worker->agent_total_starts(), kJobs);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    EXPECT_EQ(ledger.count("kill-" + std::to_string(id)), 1);
  }
  // The final ACK burst races the agent thread; keep the pilot pumping (so
  // lost ACKs are re-answered on retransmit) until the journal drains.
  for (int i = 0; i < 500 && worker->agent_journal_size() != 0; ++i) {
    (void)pilot.wait_any(0.01);
  }
  EXPECT_EQ(worker->agent_journal_size(), 0u);  // everything ACKed
}

TEST(PilotExecutor, WorkerCrashSurfacesLossesUncharged) {
  RunLedger ledger;
  WorkerConfig config = fast_worker(&ledger);
  config.faults.crash_after_starts = 5;  // dies after starting 5 jobs
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      fast_settings());
  const std::size_t kJobs = 12;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    pilot.start(request_for(id, "crash-" + std::to_string(id)));
  }
  std::vector<core::ExecResult> results = collect(pilot, kJobs, 30.0);
  ASSERT_EQ(results.size(), kJobs);
  std::size_t lost = 0;
  for (const core::ExecResult& r : results) {
    if (r.host_failure) {
      ++lost;
      EXPECT_EQ(r.exit_code, 255);
    }
  }
  // The crash wipes the journal, so some submitted jobs must come back as
  // host failures (free reschedules) — and none may be double-reported.
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(pilot.counters().jobs_reconciled_lost, lost);
  std::set<std::uint64_t> ids;
  for (const core::ExecResult& r : results) ids.insert(r.job_id);
  EXPECT_EQ(ids.size(), kJobs);
}

TEST(PilotExecutor, HungWorkerStallsThenGoesDead) {
  RunLedger ledger;
  WorkerConfig config = fast_worker(&ledger);
  config.faults.hang_after_starts = 1;  // wedge after the first start
  PilotSettings settings = fast_settings();
  settings.stall_after = 0.1;
  settings.handshake_timeout = 0.2;
  settings.reconnect_max = 2;
  PilotExecutor pilot(std::make_unique<ThreadWorkerTransport>(std::move(config)),
                      settings);
  pilot.start(request_for(1, "wedge"));
  std::vector<core::ExecResult> results = collect(pilot, 1, 20.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].host_failure);
  EXPECT_TRUE(pilot.dead());
  EXPECT_GE(pilot.counters().stalls, 1u);
}

TEST(PilotExecutor, ScriptedHangThenRecoveryViaProbe) {
  RunLedger ledger;
  PilotSettings settings = fast_settings();
  settings.handshake_timeout = 0.2;
  settings.reconnect_max = 1;  // first failed connect kills the channel
  auto transport = std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger));
  transport->script_attach({ThreadWorkerTransport::Attach::kHang});
  PilotExecutor pilot(std::move(transport), settings);
  pilot.start(request_for(1, "early"));
  std::vector<core::ExecResult> results = collect(pilot, 1, 10.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].host_failure);
  EXPECT_TRUE(pilot.dead());
  // The next attach attempt (the script is exhausted) serves normally:
  // probe_transport clears the Dead verdict and reinstates the channel.
  EXPECT_TRUE(pilot.probe_transport());
  pilot.start(request_for(2, "late"));
  results = collect(pilot, 1, 10.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].exit_code, 0);
  EXPECT_FALSE(results[0].host_failure);
  EXPECT_EQ(ledger.count("late"), 1);
}

// ---------------------------------------------------------------------------
// MultiExecutor integration.
// ---------------------------------------------------------------------------

std::unique_ptr<MultiExecutor> pilot_cluster_for(
    std::vector<RunLedger*> ledgers, PilotSettings settings,
    HealthPolicy policy, std::vector<WorkerFaults> faults = {}) {
  std::vector<HostSpec> hosts;
  for (std::size_t k = 0; k < ledgers.size(); ++k) {
    hosts.push_back({"pilot" + std::to_string(k + 1), 2, "", ""});
  }
  std::size_t next = 0;
  return std::make_unique<MultiExecutor>(
      std::move(hosts),
      [&ledgers, &faults, &next, &settings](const HostSpec&) {
        RunLedger* ledger = ledgers[next];
        WorkerConfig config = fast_worker(ledger, settings.heartbeat_interval);
        if (next < faults.size()) config.faults = faults[next];
        ++next;
        return std::make_unique<PilotExecutor>(
            std::make_unique<ThreadWorkerTransport>(std::move(config)), settings);
      },
      std::move(policy));
}

TEST(MultiExecutorPilot, RoutesAcrossPilotHostsWithoutWrappers) {
  RunLedger a, b;
  HealthPolicy policy;
  policy.quarantine_after = 3;
  auto multi = pilot_cluster_for({&a, &b}, fast_settings(), policy);
  ASSERT_EQ(multi->total_slots(), 4u);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    core::ExecRequest request =
        request_for(id, "mx-" + std::to_string(id), ((id - 1) % 4) + 1);
    multi->start(request);
  }
  std::vector<core::ExecResult> results = collect(*multi, 8, 20.0);
  ASSERT_EQ(results.size(), 8u);
  for (const core::ExecResult& r : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_FALSE(r.host_failure);
    // The command reached the worker unwrapped, and the host label is the
    // pilot host's name.
    EXPECT_EQ(r.stdout_data, "mx-" + std::to_string(r.job_id) + "\n");
    EXPECT_TRUE(r.host == "pilot1" || r.host == "pilot2") << r.host;
  }
  int total = 0;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    total += a.count("mx-" + std::to_string(id)) + b.count("mx-" + std::to_string(id));
  }
  EXPECT_EQ(total, 8);
}

TEST(MultiExecutorPilot, HeartbeatStallQuarantinesWithoutAnyCompletion) {
  // Regression for the host_health gap: a host whose worker hangs forever
  // (never completes a job, never visibly "fails" one) must still march
  // Healthy -> Suspect -> Quarantined on heartbeat silence alone.
  RunLedger healthy, wedged;
  PilotSettings settings = fast_settings();
  settings.stall_after = 0.08;
  settings.handshake_timeout = 0.15;
  settings.reconnect_max = 10;  // health acts first; Dead follows later
  HealthPolicy policy;
  policy.quarantine_after = 3;
  policy.probe_interval = 60.0;  // no reinstatement during the test
  std::vector<WorkerFaults> faults(2);
  faults[1].hang_after_starts = 1;  // second host wedges on its first job
  auto multi = pilot_cluster_for({&healthy, &wedged}, settings, policy, faults);

  // One job onto the wedged host (slots 3-4), a stream onto the healthy one.
  multi->start(request_for(100, "stuck-job", 3));
  double deadline = multi->now() + 20.0;
  bool quarantined = false;
  std::uint64_t id = 1;
  while (multi->now() < deadline && !quarantined) {
    multi->start(request_for(id, "tick-" + std::to_string(id), 1));
    ++id;
    (void)multi->wait_any(0.05);
    quarantined = multi->host_state("pilot2") == HostState::kQuarantined;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_GE(multi->health_counters().heartbeat_stall_signals, 3u);
  EXPECT_EQ(multi->host_state("pilot1"), HostState::kHealthy);
  // The stranded job is requeued-for-free territory: it must surface with
  // host_failure once the channel is condemned.
  bool surfaced = false;
  deadline = multi->now() + 20.0;
  while (multi->now() < deadline && !surfaced) {
    std::optional<core::ExecResult> r = multi->wait_any(0.1);
    if (r && r->job_id == 100) {
      EXPECT_TRUE(r->host_failure);
      surfaced = true;
    }
  }
  EXPECT_TRUE(surfaced);
}

TEST(MultiExecutorPilot, TransportProbeReinstatesAfterCrash) {
  RunLedger ledger;
  PilotSettings settings = fast_settings();
  settings.handshake_timeout = 0.2;
  settings.reconnect_max = 1;
  HealthPolicy policy;
  policy.quarantine_after = 1;  // first loss condemns
  policy.probe_interval = 0.05;
  std::vector<HostSpec> hosts{{"solo", 2, "", ""}};
  auto transport = std::make_unique<ThreadWorkerTransport>(fast_worker(&ledger));
  transport->script_attach({ThreadWorkerTransport::Attach::kHang});
  ThreadWorkerTransport* raw = transport.get();
  (void)raw;
  auto multi = std::make_unique<MultiExecutor>(
      std::move(hosts),
      [&transport, &settings](const HostSpec&) {
        return std::make_unique<PilotExecutor>(std::move(transport), settings);
      },
      policy);
  multi->start(request_for(1, "doomed", 1));
  std::vector<core::ExecResult> results = collect(*multi, 1, 20.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].host_failure);
  EXPECT_EQ(multi->host_state("solo"), HostState::kQuarantined);
  // The probe loop reconnects the transport (scripted hang consumed) and
  // reinstates the host without running any probe job.
  double deadline = multi->now() + 20.0;
  while (multi->now() < deadline &&
         multi->host_state("solo") != HostState::kHealthy) {
    (void)multi->wait_any(0.05);
  }
  EXPECT_EQ(multi->host_state("solo"), HostState::kHealthy);
  EXPECT_GE(multi->health_counters().reinstatements, 1u);
  multi->start(request_for(2, "revived", 1));
  results = collect(*multi, 1, 20.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].exit_code, 0);
  EXPECT_EQ(ledger.count("revived"), 1);
}

}  // namespace
}  // namespace parcl::exec
