#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

double mono_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> poisson_schedule(std::mt19937_64& rng, double rate,
                                     std::size_t count) {
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at;
  at.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    at.push_back(t);
  }
  return at;
}

void Metrics::set(const std::string& name, double value) {
  for (auto& entry : values_) {
    if (entry.first == name) {
      entry.second = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Metrics::get(const std::string& name) const {
  for (const auto& entry : values_) {
    if (entry.first == name) return entry.second;
  }
  return 0.0;
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!first) out << ", ";
    first = false;
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", std::isfinite(value) ? value : 0.0);
    out << '"' << name << "\": " << number;
  }
  out << '}';
  return out.str();
}

Child spawn(const std::vector<std::string>& argv, bool pipe_stdout,
            const std::string& stderr_path) {
  int out_pipe[2] = {-1, -1};
  if (pipe_stdout && ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  Child child;
  int rc = ::posix_spawn(&child.pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdout) ::close(out_pipe[1]);
  if (rc != 0) {
    if (pipe_stdout) ::close(out_pipe[0]);
    throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  child.stdout_fd = out_pipe[0];
  return child;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

double read_proc_cpu(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The command name may hold spaces: fields resume after the last ')'.
  std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::vector<std::string> f;
  std::string field;
  while (fields >> field) f.push_back(field);
  // After ')': state is field 3, so utime (14) is index 11 here.
  if (f.size() < 13) return 0.0;
  return (std::stod(f[11]) + std::stod(f[12])) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double children_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::vector<double> cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu"
  std::vector<double> ticks;
  double value = 0.0;
  while (ticks.size() < 8 && in >> value) ticks.push_back(value);
  ticks.resize(8, 0.0);
  return ticks;
}

double steal_share(const std::vector<double>& before, const std::vector<double>& after) {
  double total = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) total += after[i] - before[i];
  return total > 0.0 ? (after[7] - before[7]) / total : 0.0;
}

std::vector<std::size_t> least_stolen(const std::vector<double>& steal, std::size_t keep) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double read_vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

double file_bytes(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size);
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write: " + std::string(std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace perfbench
