// The service_mix workload: weighted tenants against `parcl --server` over
// its unix socket (untraced), or against ServerCore in process with the
// tracing decorators (traced). Both replay the same seeded plan.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// One service_mix run. The workload itself (tenants, slots, offered rate,
/// windows, history size) is fixed in service.cpp; a run differs only in
/// its seed and length.
struct ServiceConfig {
  std::string parcl_bin;
  std::string history_dir;  // seeded state dir, copied fresh per server start
  std::string work_dir;     // holds the state copies and sockets
  std::uint64_t seed = 0;
  double seconds = 0.0;  // the timed open- plus closed-loop phases
};

/// Builds the seeded completed-job history in `dir` through ServerCore's
/// public submit/step path (an in-process executor stands in for the
/// children, so seeding costs no spawns).
void seed_history(const std::string& dir, std::uint64_t seed);

/// End-to-end run against the real server process. Sets setup_s,
/// latency_p50_ms, latency_p99_ms, jobs_per_s, mb_per_s, cpu_ms_per_job,
/// peak_rss_kb, failed_frac, lag_p99_ms, attempted, failed.
Metrics service_e2e(const ServiceConfig& config);

/// The traced replay in process; sets the per-layer metrics and the traced
/// jobs_per_s (closed-loop completions/s).
Metrics service_traced(const ServiceConfig& config);

}  // namespace perfbench
