// Shared helpers for the benchmark tools: clocks, seeded schedules,
// percentiles, child processes and /proc accounting, and the flat JSON
// object every subcommand prints as its last line.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock).
double mono_now();

/// Linear-interpolated quantile in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// `count` arrival offsets (seconds from 0) of a Poisson process at `rate`/s.
std::vector<double> poisson_schedule(std::mt19937_64& rng, double rate,
                                     std::size_t count);

/// Ordered name -> number pairs, printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// A spawned child; `stdout_fd` is the parent's read end (-1 when not piped).
struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;
};

/// Spawns `argv` with stdin from /dev/null, stdout piped to the parent (or
/// to /dev/null), and stderr appended to `stderr_path`. Throws
/// std::runtime_error on failure.
Child spawn(const std::vector<std::string>& argv, bool pipe_stdout,
            const std::string& stderr_path);

/// Waits for `pid` to exit; returns its exit code (128+N when signalled).
int wait_exit(pid_t pid);

/// A live or zombie process's own CPU (utime+stime, children excluded), s.
double read_proc_cpu(pid_t pid);

/// User+system CPU of this process's reaped children (RUSAGE_CHILDREN), s.
double children_cpu_seconds();

/// The machine's CPU tick counters, the first line of /proc/stat.
std::vector<double> cpu_times();

/// Share of the machine's CPU time between two cpu_times() samples that the
/// hypervisor gave to other guests (steal).
double steal_share(const std::vector<double>& before, const std::vector<double>& after);

/// Indices of the `keep` entries of `steal` with the least steal, ascending.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal, std::size_t keep);

/// VmHWM (peak RSS) of a live process, KiB; 0 when unreadable.
double read_vm_hwm_kb(pid_t pid);

/// Bytes in a file (0 when missing).
double file_bytes(const std::string& path);

/// Writes `data` fully to a blocking fd; throws on error.
void write_all(int fd, const std::string& data);

}  // namespace perfbench
