#include "exec/host_probe.hpp"

#include <fstream>
#include <sstream>

#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace parcl::exec {

HostProbe::HostProbe(double cache_seconds)
    : meminfo_path_("/proc/meminfo"),
      loadavg_path_("/proc/loadavg"),
      cache_seconds_(cache_seconds) {}

HostProbe::HostProbe(std::string meminfo_path, std::string loadavg_path,
                     double cache_seconds)
    : meminfo_path_(std::move(meminfo_path)),
      loadavg_path_(std::move(loadavg_path)),
      cache_seconds_(cache_seconds) {}

core::ResourcePressure HostProbe::sample() {
  double now = util::monotonic_seconds();
  if (last_sample_ >= 0.0 && now - last_sample_ < cache_seconds_) return cached_;
  cached_ = read_now();
  last_sample_ = now;
  return cached_;
}

core::ResourcePressure HostProbe::read_now() const {
  core::ResourcePressure pressure;

  std::ifstream meminfo(meminfo_path_);
  std::string line;
  while (meminfo && std::getline(meminfo, line)) {
    // "MemAvailable:   12345678 kB" — the kernel's estimate of memory
    // allocatable without swapping, which is what --memfree should gate on.
    if (!util::starts_with(line, "MemAvailable:")) continue;
    std::istringstream fields(line.substr(13));
    double kb = 0.0;
    if (fields >> kb) pressure.mem_free_bytes = kb * 1024.0;
    break;
  }

  std::ifstream loadavg(loadavg_path_);
  double load1 = 0.0;
  if (loadavg && loadavg >> load1) pressure.load_avg = load1;

  return pressure;
}

}  // namespace parcl::exec
