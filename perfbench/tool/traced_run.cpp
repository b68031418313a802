#include "traced_run.hpp"

#include <fstream>
#include <memory>
#include <sstream>

#include "core/cli.hpp"
#include "core/engine.hpp"
#include "core/pipe.hpp"
#include "exec/local_executor.hpp"
#include "exec/multi_executor.hpp"
#include "tracing.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace pc = parcl::core;
namespace pe = parcl::exec;

namespace {

/// The --pilot branch of the CLI's cluster wiring: one worker agent per
/// -S entry, each re-executing the parcl binary as `--worker`.
std::unique_ptr<pe::MultiExecutor> pilot_cluster(pc::RunPlan& plan,
                                                 const std::string& parcl_bin) {
  std::vector<pe::HostSpec> hosts;
  for (const pc::SshLogin& login : plan.sshlogins) {
    if (login.host != ":") {
      throw parcl::util::ConfigError("traced --pilot runs support only ':' hosts");
    }
    pe::HostSpec spec;
    spec.name = "localhost";
    spec.jobs = login.jobs;
    hosts.push_back(spec);
  }
  pe::HealthPolicy policy;
  policy.quarantine_after = plan.options.quarantine_after;
  policy.probe_interval = plan.options.probe_interval_seconds;
  pe::PilotSettings settings;
  settings.heartbeat_interval = plan.options.heartbeat_interval_seconds;
  settings.reconnect_max = plan.options.reconnect_max;
  const std::string heartbeat = std::to_string(plan.options.heartbeat_interval_seconds);
  auto cluster = pe::MultiExecutor::pilot_cluster(
      std::move(hosts),
      [parcl_bin, heartbeat](const pe::HostSpec&) -> std::vector<std::string> {
        return {parcl_bin, "--worker", "--heartbeat-interval", heartbeat};
      },
      settings, policy);
  plan.options.jobs = cluster->total_slots();
  return cluster;
}

double per_job(double total, std::size_t jobs) {
  return jobs == 0 ? 0.0 : total / static_cast<double>(jobs);
}

}  // namespace

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "core.source.pull_us_per_job",
      "core.source.pulls",
      "core.engine.self_us_per_job",
      "core.engine.inflight_mean",
      "core.engine.joblog_bytes_per_job",
      "core.output.bytes",
      "core.output.write_calls",
      "exec.local.spawn_us_p50",
      "exec.local.spawn_us_p99",
      "exec.local.spawn_failed",
      "exec.local.wait_us_per_job",
      "exec.local.empty_waits_frac",
      "exec.local.child_us_p50",
      "exec.local.child_us_p99",
      "exec.local.notify_us_p50",
      "exec.local.notify_us_p99",
      "exec.local.out_bytes_per_job",
      "exec.local.child_cpu_ms_per_job",
      "exec.local.dispatcher_threads",
      "exec.pilot.start_us_per_job",
      "exec.pilot.wait_us_per_job",
      "exec.pilot.roundtrip_us_p50",
      "exec.pilot.roundtrip_us_p99",
      "exec.transport.encode_ns_per_frame",
      "exec.transport.decode_ns_per_frame",
      "exec.transport.wire_bytes_per_job",
      "core.server.submit_us_p50",
      "core.server.submit_us_p99",
      "core.server.step_self_us_per_job",
      "core.server.queue_wait_ms_p50",
      "core.server.queue_wait_ms_p99",
      "core.server.replay_s",
      "core.server.journal_bytes_per_job",
      "core.server.ledger_bytes_per_job",
      "core.server.rejects_frac",
      "loadgen.lag_p99_ms",
      "trace.overhead_frac",
  };
  return names;
}

TracedRunResult traced_cli_run(const TracedRunConfig& config) {
  pc::RunPlan plan = pc::parse_cli(config.argv);
  plan.options.collect_results = false;  // as the CLI: stream, don't keep results

  pe::LocalExecutor local;
  std::unique_ptr<pe::MultiExecutor> cluster;
  const bool pilot = plan.options.pilot;
  if (pilot) cluster = pilot_cluster(plan, config.parcl_bin);
  TracingExecutor traced(cluster ? static_cast<pc::Executor&>(*cluster)
                                 : static_cast<pc::Executor&>(local));

  std::ofstream out_file(config.out_path, std::ios::binary | std::ios::trunc);
  CountingBuf out_buf(out_file.rdbuf());
  std::ostream out(&out_buf);
  std::ostringstream err;
  std::ifstream stdin_file;
  std::istringstream empty;
  std::istream* in = &empty;
  if (!config.stdin_path.empty()) {
    stdin_file.open(config.stdin_path, std::ios::binary);
    in = &stdin_file;
  }

  pc::Engine engine(plan.options, traced, out, err);
  TracedRunResult run;
  const double cpu0 = children_cpu_seconds();
  const double t0 = mono_now();
  double source_seconds = 0.0;
  std::uint64_t pulls = 0;
  if (plan.options.pipe_mode) {
    pc::PipeOptions pipe_options;
    pipe_options.block_bytes = plan.options.block_bytes;
    pipe_options.record_separator = plan.input_sep;
    pc::PipeBlockSource blocks(*in, pipe_options);
    TracingSource source(blocks);
    run.summary = engine.run_pipe_source(plan.command_template, source);
    source_seconds = source.seconds();
    pulls = source.pulls();
  } else {
    std::unique_ptr<pc::JobSource> inner = pc::make_job_source(plan, *in);
    TracingSource source(*inner);
    run.summary = engine.run_source(plan.command_template, source);
    source_seconds = source.seconds();
    pulls = source.pulls();
  }
  run.wall_seconds = mono_now() - t0;
  out.flush();
  const double child_cpu = children_cpu_seconds() - cpu0;
  const std::size_t jobs = run.summary.succeeded + run.summary.failed + run.summary.killed;
  run.jobs = jobs;

  const ExecTrace t = traced.merged();
  const double shards = traced.shard_count() == 0 ? 1.0
                                                  : static_cast<double>(traced.shard_count());
  // Executor calls on the dispatcher shards overlap each other; the share on
  // the engine's critical path is their per-shard mean.
  const double exec_seconds = (t.start_seconds + t.wait_seconds) / shards;
  const double self = run.wall_seconds - exec_seconds - source_seconds - out_buf.seconds();

  Metrics& m = run.metrics;
  for (const std::string& name : per_layer_names()) m.set(name, 0.0);
  m.set("core.source.pull_us_per_job", per_job(source_seconds * 1e6, jobs));
  m.set("core.source.pulls", static_cast<double>(pulls));
  m.set("core.engine.self_us_per_job", per_job(self * 1e6, jobs));
  m.set("core.engine.inflight_mean", traced.inflight_mean());
  if (!plan.options.joblog_path.empty()) {
    m.set("core.engine.joblog_bytes_per_job",
          per_job(file_bytes(plan.options.joblog_path), jobs));
  }
  m.set("core.output.bytes", static_cast<double>(out_buf.bytes()));
  m.set("core.output.write_calls", static_cast<double>(out_buf.write_calls()));
  m.set("exec.local.dispatcher_threads",
        static_cast<double>(run.summary.dispatch.dispatcher_threads));
  if (pilot) {
    m.set("exec.pilot.start_us_per_job", per_job(t.start_seconds * 1e6, t.starts));
    m.set("exec.pilot.wait_us_per_job", per_job(t.wait_seconds * 1e6, t.completions));
    m.set("exec.pilot.roundtrip_us_p50", quantile(t.roundtrip_us, 0.50));
    m.set("exec.pilot.roundtrip_us_p99", quantile(t.roundtrip_us, 0.99));
  } else {
    m.set("exec.local.spawn_us_p50", quantile(t.spawn_us, 0.50));
    m.set("exec.local.spawn_us_p99", quantile(t.spawn_us, 0.99));
    m.set("exec.local.spawn_failed", static_cast<double>(t.start_failed));
    m.set("exec.local.wait_us_per_job", per_job(t.wait_seconds * 1e6, t.completions));
    m.set("exec.local.empty_waits_frac",
          t.waits == 0 ? 0.0 : static_cast<double>(t.empty_waits) / static_cast<double>(t.waits));
    m.set("exec.local.child_us_p50", quantile(t.child_us, 0.50));
    m.set("exec.local.child_us_p99", quantile(t.child_us, 0.99));
    m.set("exec.local.notify_us_p50", quantile(t.notify_us, 0.50));
    m.set("exec.local.notify_us_p99", quantile(t.notify_us, 0.99));
    m.set("exec.local.out_bytes_per_job", per_job(static_cast<double>(t.out_bytes), t.completions));
    m.set("exec.local.child_cpu_ms_per_job", per_job(child_cpu * 1e3, jobs));
  }
  return run;
}

}  // namespace perfbench
