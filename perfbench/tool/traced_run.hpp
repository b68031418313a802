// The traced replay of a parcl command line, in process: the CLI's own
// wiring (parse_cli -> make_job_source / PipeBlockSource -> Engine, and
// MultiExecutor::pilot_cluster for --pilot) with the tracing decorators
// slipped in between the layers.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/job.hpp"

namespace perfbench {

struct TracedRunConfig {
  std::vector<std::string> argv;  // parcl arguments, without the program name
  std::string stdin_path;         // the run's stdin ("" = empty)
  std::string out_path;           // collated stdout lands here
  std::string parcl_bin;          // the binary --pilot agents re-exec
};

struct TracedRunResult {
  Metrics metrics;  // per-layer metrics of the run
  parcl::core::RunSummary summary;
  double wall_seconds = 0.0;
  std::size_t jobs = 0;
};

TracedRunResult traced_cli_run(const TracedRunConfig& config);

/// Every per-layer metric name, in report order; a layer a workload
/// bypasses reports 0.
const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
