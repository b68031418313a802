#include "service.hpp"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/server.hpp"
#include "exec/function_executor.hpp"
#include "exec/local_executor.hpp"
#include "exec/transport.hpp"
#include "tracing.hpp"
#include "traced_run.hpp"
#include "util/net.hpp"

namespace perfbench {

namespace pc = parcl::core;
namespace pe = parcl::exec;
namespace tp = parcl::exec::transport;
namespace fs = std::filesystem;

namespace {

// The workload (perfbench/README.md says why each value). Replaying the
// history is about 96% of a server start's setup_s, and the offered rate is
// about a third of the closed loop's capacity on the reference box.
constexpr std::size_t kMaxTenants = 4;
constexpr std::size_t kSlots = 16;
constexpr double kOpenRate = 1000.0;          // offered jobs/s in the open loop
constexpr std::size_t kWindowArrivals = 250;  // open-loop arrivals per window
constexpr double kClosedWindow = 0.5;         // closed-loop window, seconds
constexpr std::size_t kOutstanding = 16;      // closed loop, per tenant
constexpr std::size_t kSetupRepeats = 10;     // server starts timed for setup_s
constexpr std::size_t kHistoryJobs = 20000;

/// At most one tenant connection per CPU the benchmark may use.
std::size_t tenant_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::min<std::size_t>(kMaxTenants, static_cast<std::size_t>(std::max(1, cpus)));
}

/// How a run of `seconds` splits: half to the open loop, in whole windows,
/// and the rest, less a second for the drains, to the closed loop. Short
/// windows let the steal filter drop the bursts of host contention.
struct Phases {
  std::size_t open_windows;
  std::size_t open_jobs;
  double closed_seconds;
};

Phases phases(double seconds) {
  Phases p{};
  p.open_windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / 2.0 * kOpenRate / kWindowArrivals));
  p.open_jobs = p.open_windows * kWindowArrivals;
  p.closed_seconds = std::max(2.0, seconds - static_cast<double>(p.open_jobs) / kOpenRate - 1.0);
  return p;
}

/// The seeded traffic: tenant names and weights, the open-loop arrival
/// schedule, and one token per job (the job is `echo <token>`).
struct Plan {
  std::vector<std::string> tenants;
  std::vector<double> weights;
  std::vector<double> open_at;
  std::vector<std::size_t> open_tenant;
  std::mt19937_64 tokens;

  std::string next_token() {
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::uniform_int_distribution<std::size_t> length(6, 24);
    std::uniform_int_distribution<std::size_t> pick(0, sizeof(kAlphabet) - 2);
    std::string token(length(tokens), 'x');
    for (char& c : token) c = kAlphabet[pick(tokens)];
    return token;
  }
};

Plan make_plan(std::uint64_t seed, std::size_t open_jobs) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Plan plan;
  // Weights are a seeded permutation of a fixed set (cycled past four
  // tenants), so every seed offers the same mix and the seed moves only who
  // gets which share and when each job arrives.
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::shuffle(weights.begin(), weights.end(), rng);
  for (std::size_t i = 0; i < tenant_count(); ++i) {
    plan.tenants.push_back(std::string("t").append(std::to_string(i)));
    plan.weights.push_back(weights[i % weights.size()]);
  }
  plan.open_at = poisson_schedule(rng, kOpenRate, open_jobs);
  std::discrete_distribution<std::size_t> tenant(plan.weights.begin(), plan.weights.end());
  for (std::size_t i = 0; i < open_jobs; ++i) plan.open_tenant.push_back(tenant(rng));
  plan.tokens.seed(rng());
  return plan;
}

tp::SubmitFrame submit_frame(std::uint64_t seq, const std::string& token) {
  tp::JobSpec job;
  job.seq = seq;
  job.command = "echo " + token;
  tp::SubmitFrame frame;
  frame.jobs.push_back(std::move(job));
  return frame;
}

std::string fresh_state(const ServiceConfig& config, const std::string& name) {
  std::string dir = config.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::copy(config.history_dir, dir, fs::copy_options::recursive);
  return dir;
}

constexpr std::size_t kClosedLoop = static_cast<std::size_t>(-1);

/// One outstanding job as the load generator tracks it.
struct Outstanding {
  double due = 0.0;  // scheduled send, phase-relative seconds
  std::string expect;
  std::string stdout_data;
  std::size_t arrival = kClosedLoop;  // open-loop arrival index
};

/// One tenant's connection to the real server.
struct TenantLink {
  int fd = -1;
  tp::FrameDecoder decoder;
  std::uint64_t next_seq = 1;
  std::map<std::uint64_t, Outstanding> outstanding;

  ~TenantLink() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::string& bytes) { write_all(fd, bytes); }

  /// Reads what is available (the caller polled POLLIN) into frames.
  bool read_into(std::vector<tp::Frame>& frames) {
    char buffer[65536];
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) return false;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
    return true;
  }
};

/// Blocks until `link` has one whole frame.
tp::Frame read_frame(TenantLink& link) {
  std::vector<tp::Frame> frames;
  while (frames.empty()) {
    if (!link.read_into(frames)) throw std::runtime_error("server closed the connection");
  }
  if (frames.size() > 1) throw std::runtime_error("unexpected frames during handshake");
  return frames.front();
}

void hello(TenantLink& link, const std::string& tenant, double weight) {
  tp::ClientHelloFrame frame;
  frame.tenant = tenant;
  frame.weight = weight;
  link.send(tp::encode_client_hello(frame));
  tp::Frame reply = read_frame(link);
  if (reply.type != tp::FrameType::kHelloAck) {
    throw std::runtime_error("server refused tenant " + tenant);
  }
}

/// A running `parcl --server`, started on `state` and timed from spawn to
/// `first`'s HELLO_ACK. One destroyed without stop() is killed and reaped,
/// so no error path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const ServiceConfig& config, const std::string& state, TenantLink& first,
                const Plan& plan)
      : socket_(state + ".sock") {
    ::unlink(socket_.c_str());
    const double t0 = mono_now();
    pid_ = spawn({config.parcl_bin, "--server", "--state-dir", state, "--socket", socket_,
                  "-j", std::to_string(kSlots)},
                 false, config.work_dir + "/server.stderr")
               .pid;
    try {
      while ((first.fd = parcl::util::unix_connect(socket_)) < 0) {
        if (mono_now() - t0 > 30.0) throw std::runtime_error("server did not come up");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      hello(first, plan.tenants[0], plan.weights[0]);
    } catch (...) {
      kill_and_reap();
      throw;
    }
    setup_seconds_ = mono_now() - t0;
  }
  ~ServerProcess() { kill_and_reap(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }
  double setup_seconds() const { return setup_seconds_; }

  /// Says BYE on every link (waiting for the server's BYE, so every result
  /// before it was delivered), then drains the server with SIGTERM.
  /// Returns its exit code.
  int stop(std::vector<std::unique_ptr<TenantLink>>& links) {
    for (auto& link : links) {
      if (link->fd < 0) continue;
      link->send(tp::encode_bye());
      std::vector<tp::Frame> frames;
      bool bye = false;
      while (!bye && link->read_into(frames)) {
        for (const tp::Frame& frame : frames) bye = bye || frame.type == tp::FrameType::kBye;
        frames.clear();
      }
      ::close(link->fd);
      link->fd = -1;
    }
    ::kill(pid_, SIGTERM);
    const int code = wait_exit(pid_);
    pid_ = -1;
    return code;
  }

 private:
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    wait_exit(pid_);
    pid_ = -1;
  }

  std::string socket_;
  pid_t pid_ = -1;
  double setup_seconds_ = 0.0;
};

/// Ledger rows by intake id; throws when a row repeats.
std::size_t ledger_rows_checked(const std::string& state, std::size_t* failed_rows) {
  std::ifstream in(pc::ServerCore::ledger_path(state));
  std::string line;
  std::set<std::string> ids;
  std::size_t rows = 0;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t tab; (tab = line.find('\t', start)) != std::string::npos; start = tab + 1) {
      fields.push_back(line.substr(start, tab - start));
    }
    fields.push_back(line.substr(start));
    if (fields.size() < 7) throw std::runtime_error("torn ledger row");
    if (!ids.insert(fields[0]).second) throw std::runtime_error("ledger repeats id " + fields[0]);
    if (fields[6] != "0") ++*failed_rows;
    ++rows;
  }
  return rows;
}

/// Sends job `seq` of `link` and registers it outstanding.
void submit(TenantLink& link, Plan& plan, double due, std::size_t arrival) {
  Outstanding job;
  std::string token = plan.next_token();
  job.due = due;
  job.expect = token + "\n";
  job.arrival = arrival;
  std::uint64_t seq = link.next_seq++;
  link.send(tp::encode_submit(submit_frame(seq, token)));
  link.outstanding.emplace(seq, std::move(job));
}

struct LoadCounters {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t bytes_out = 0;
  std::vector<std::pair<std::size_t, double>> open_latency_ms;  // (arrival, ms)
};

/// Processes frames from one tenant; returns the tenant's finished count.
std::size_t handle_frames(TenantLink& link, std::vector<tp::Frame>& frames, double now,
                          LoadCounters& counters) {
  std::size_t finished = 0;
  for (const tp::Frame& frame : frames) {
    switch (frame.type) {
      case tp::FrameType::kStdout: {
        tp::ChunkFrame chunk = tp::decode_chunk(frame);
        auto it = link.outstanding.find(chunk.seq);
        if (it != link.outstanding.end()) it->second.stdout_data += chunk.data;
        break;
      }
      case tp::FrameType::kResult: {
        tp::ResultFrame result = tp::decode_result(frame);
        auto it = link.outstanding.find(result.seq);
        if (it == link.outstanding.end()) {
          ++counters.failed;  // a RESULT for nothing outstanding: duplicate or stray
          break;
        }
        const Outstanding& job = it->second;
        bool ok = result.exit_code == 0 && result.term_signal == 0 &&
                  job.stdout_data == job.expect;
        if (ok) {
          ++counters.completed;
          counters.bytes_out += job.stdout_data.size();
          if (job.arrival != kClosedLoop) {
            counters.open_latency_ms.emplace_back(job.arrival, (now - job.due) * 1e3);
          }
        } else {
          ++counters.failed;
        }
        link.outstanding.erase(it);
        ++finished;
        break;
      }
      case tp::FrameType::kReject: {
        tp::RejectFrame reject = tp::decode_reject(frame);
        if (link.outstanding.erase(reject.seq) > 0) {
          ++counters.failed;  // refused and never run
          ++finished;
        }
        break;
      }
      default:
        break;  // ACK, HEARTBEAT: nothing to track
    }
  }
  frames.clear();
  return finished;
}

/// Polls every link for up to `wait_seconds`, handling the frames that came.
/// Returns per-link finished counts through `finished`.
void pump(std::vector<std::unique_ptr<TenantLink>>& links, double phase_start,
          double wait_seconds, LoadCounters& counters, std::vector<std::size_t>& finished) {
  std::vector<pollfd> fds;
  for (auto& link : links) fds.push_back({link->fd, POLLIN, 0});
  timespec timeout{};
  wait_seconds = std::max(0.0, wait_seconds);
  timeout.tv_sec = static_cast<time_t>(wait_seconds);
  timeout.tv_nsec = static_cast<long>((wait_seconds - static_cast<double>(timeout.tv_sec)) * 1e9);
  int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready <= 0) return;
  std::vector<tp::Frame> frames;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    if (!links[i]->read_into(frames)) throw std::runtime_error("server dropped a tenant");
    finished[i] += handle_frames(*links[i], frames, mono_now() - phase_start, counters);
  }
}

std::size_t total_outstanding(const std::vector<std::unique_ptr<TenantLink>>& links) {
  std::size_t n = 0;
  for (const auto& link : links) n += link->outstanding.size();
  return n;
}

constexpr double kPhaseTimeout = 60.0;
constexpr double kSpinSeconds = 0.002;

}  // namespace

void seed_history(const std::string& dir, std::uint64_t seed) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  pe::FunctionExecutor executor(
      [](const pc::ExecRequest& request) {
        pe::TaskOutcome outcome;
        outcome.stdout_data = request.command.substr(request.command.find(' ') + 1) + "\n";
        return outcome;
      },
      2);
  pc::ServerConfig config;
  config.state_dir = dir;
  config.slots = kSlots;
  pc::ServerCore core(config, executor);
  Plan plan = make_plan(seed ^ 0x5eedULL, 0);
  const std::vector<std::string> tenants = {"h0", "h1", "h2", "h3"};
  for (const std::string& tenant : tenants) core.attach_tenant(tenant, 1.0);
  std::size_t submitted = 0;
  while (submitted < kHistoryJobs || !core.idle()) {
    while (submitted < kHistoryJobs && core.queued_count() < 512) {
      const std::string& tenant = tenants[submitted % tenants.size()];
      pc::Admission admission =
          core.submit(tenant, submitted / tenants.size() + 1, "echo " + plan.next_token());
      if (!admission.accepted) throw std::runtime_error("history seeding was refused");
      ++submitted;
    }
    core.step(0.01);
    core.take_events();
  }
  core.flush();
}

Metrics service_e2e(const ServiceConfig& config) {
  fs::create_directories(config.work_dir);
  std::vector<double> setups;
  const Phases phase = phases(config.seconds);
  for (std::size_t r = 0; r + 1 < kSetupRepeats; ++r) {
    Plan plan = make_plan(config.seed, 0);
    std::string state = fresh_state(config, "setup" + std::to_string(r));
    std::vector<std::unique_ptr<TenantLink>> links;
    links.push_back(std::make_unique<TenantLink>());
    ServerProcess server(config, state, *links[0], plan);
    setups.push_back(server.setup_seconds());
    if (server.stop(links) != 0) throw std::runtime_error("server exited nonzero");
    fs::remove_all(state);
  }

  Plan plan = make_plan(config.seed, phase.open_jobs);
  std::string state = fresh_state(config, "state");
  std::size_t history_rows = 0;
  {
    std::size_t ignored = 0;
    history_rows = ledger_rows_checked(state, &ignored);
  }
  std::vector<std::unique_ptr<TenantLink>> links;
  for (std::size_t i = 0; i < plan.tenants.size(); ++i) {
    links.push_back(std::make_unique<TenantLink>());
  }
  ServerProcess server(config, state, *links[0], plan);
  setups.push_back(server.setup_seconds());
  for (std::size_t i = 1; i < links.size(); ++i) {
    links[i]->fd = parcl::util::unix_connect(server.socket());
    if (links[i]->fd < 0) throw std::runtime_error("connect failed");
    hello(*links[i], plan.tenants[i], plan.weights[i]);
  }

  LoadCounters counters;
  std::vector<std::size_t> finished(links.size(), 0);
  const double cpu0 = read_proc_cpu(server.pid());

  // Open loop: send on the seeded schedule regardless of completions; time
  // each job from when it was due, and record how late the sender ran. The
  // arrivals are cut into equal windows, and the machine's CPU counters are
  // sampled at each window's edge.
  const std::size_t windows = phase.open_windows;
  const std::size_t per_window = kWindowArrivals;
  std::vector<std::vector<double>> open_edges = {cpu_times()};
  std::vector<double> lag_ms;
  double phase_start = mono_now();
  std::size_t next = 0;
  while (next < plan.open_at.size() || total_outstanding(links) > 0) {
    double now = mono_now() - phase_start;
    if (now > kPhaseTimeout) throw std::runtime_error("open-loop phase timed out");
    while (next < plan.open_at.size() && plan.open_at[next] <= now) {
      submit(*links[plan.open_tenant[next]], plan, plan.open_at[next], next);
      lag_ms.push_back((mono_now() - phase_start - plan.open_at[next]) * 1e3);
      ++counters.attempted;
      ++next;
      if (next % per_window == 0 || next == plan.open_at.size()) open_edges.push_back(cpu_times());
    }
    double wait = next < plan.open_at.size() ? plan.open_at[next] - (mono_now() - phase_start)
                                             : 0.05;
    // Sleep only until 2 ms before the next send, then poll without
    // blocking: a timed wake-up on a virtual CPU can be late by milliseconds,
    // and that lateness would be billed to parcl as latency.
    if (next < plan.open_at.size()) wait = std::max(0.0, wait - kSpinSeconds);
    pump(links, phase_start, wait, counters, finished);
  }

  // Closed loop: every tenant keeps kOutstanding jobs outstanding for the phase,
  // measured in kClosedWindow windows (the drain after the phase is not).
  struct Edge {
    double at;
    std::size_t completed;
    std::size_t bytes;
    std::vector<double> cpu;
  };
  auto edge = [&](double at) {
    return Edge{at, counters.completed, counters.bytes_out, cpu_times()};
  };
  phase_start = mono_now();
  std::vector<Edge> closed_edges = {edge(0.0)};
  std::fill(finished.begin(), finished.end(), 0);
  for (auto& link : links) {
    for (std::size_t w = 0; w < kOutstanding; ++w) {
      submit(*link, plan, 0.0, kClosedLoop);
      ++counters.attempted;
    }
  }
  double last_completion = 0.0;
  while (total_outstanding(links) > 0) {
    double now = mono_now() - phase_start;
    if (now > phase.closed_seconds + kPhaseTimeout) {
      throw std::runtime_error("closed-loop phase timed out");
    }
    pump(links, phase_start, 0.05, counters, finished);
    last_completion = mono_now() - phase_start;
    const double since = last_completion - closed_edges.back().at;
    if (closed_edges.back().at < phase.closed_seconds &&
        (since >= kClosedWindow || last_completion >= phase.closed_seconds)) {
      closed_edges.push_back(edge(last_completion));
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (; finished[i] > 0; --finished[i]) {
        if (last_completion < phase.closed_seconds) {
          submit(*links[i], plan, 0.0, kClosedLoop);
          ++counters.attempted;
        }
      }
    }
  }
  const double cpu1 = read_proc_cpu(server.pid());
  const double hwm_kb = read_vm_hwm_kb(server.pid());
  const int exit_code = server.stop(links);

  std::size_t failed_rows = 0;
  const std::size_t rows = ledger_rows_checked(state, &failed_rows);
  const std::size_t new_rows = rows - history_rows;
  // Every job the server finished has exactly one ledger row, and none ran
  // without being submitted.
  if (exit_code != 0) counters.failed = std::max<std::size_t>(counters.failed, 1);
  if (new_rows != counters.completed + failed_rows) {
    counters.failed += std::max(new_rows, counters.completed) -
                       std::min(new_rows, counters.completed);
  }
  fs::remove_all(state);

  Metrics m;
  m.set("attempted", static_cast<double>(counters.attempted));
  m.set("failed", static_cast<double>(counters.failed));
  // Each figure is the median over the half of its windows that lost the
  // least CPU to the hypervisor (steal), so neither a burst of host
  // contention nor one slow window sets the run's figure.
  std::vector<double> rate, mb_rate, closed_steal;
  for (std::size_t w = 0; w + 1 < closed_edges.size(); ++w) {
    const Edge& a = closed_edges[w];
    const Edge& b = closed_edges[w + 1];
    rate.push_back(static_cast<double>(b.completed - a.completed) / (b.at - a.at));
    mb_rate.push_back(static_cast<double>(b.bytes - a.bytes) / 1e6 / (b.at - a.at));
    closed_steal.push_back(steal_share(a.cpu, b.cpu));
  }
  std::vector<double> jobs_s, mb_s;
  for (std::size_t w : least_stolen(closed_steal, (closed_steal.size() + 1) / 2)) {
    jobs_s.push_back(rate[w]);
    mb_s.push_back(mb_rate[w]);
  }
  m.set("jobs_per_s", quantile(jobs_s, 0.5));
  m.set("mb_per_s", quantile(mb_s, 0.5));
  std::vector<std::vector<double>> latency(windows), lag(windows);
  for (const auto& [arrival, ms] : counters.open_latency_ms) {
    latency[arrival / per_window].push_back(ms);
  }
  for (std::size_t i = 0; i < lag_ms.size(); ++i) lag[i / per_window].push_back(lag_ms[i]);
  std::vector<double> open_steal;
  for (std::size_t w = 0; w + 1 < open_edges.size(); ++w) {
    open_steal.push_back(steal_share(open_edges[w], open_edges[w + 1]));
  }
  // Latency pools the samples of the kept windows, so the p99 rests on tens
  // of samples beyond it rather than on one window's ten.
  std::vector<double> kept_latency, kept_lag;
  for (std::size_t w : least_stolen(open_steal, (open_steal.size() + 1) / 2)) {
    kept_latency.insert(kept_latency.end(), latency[w].begin(), latency[w].end());
    kept_lag.insert(kept_lag.end(), lag[w].begin(), lag[w].end());
  }
  m.set("latency_p50_ms", quantile(kept_latency, 0.50));
  m.set("latency_p99_ms", quantile(kept_latency, 0.99));
  m.set("latency_samples", static_cast<double>(kept_latency.size()));
  m.set("cpu_ms_per_job", counters.completed == 0
                              ? 0.0
                              : (cpu1 - cpu0) * 1e3 / counters.completed);
  m.set("peak_rss_kb", hwm_kb);
  m.set("setup_s", quantile(setups, 0.5));
  m.set("failed_frac", counters.attempted == 0
                           ? 1.0
                           : static_cast<double>(counters.failed) / counters.attempted);
  m.set("lag_p99_ms", quantile(kept_lag, 0.99));
  return m;
}

Metrics service_traced(const ServiceConfig& config) {
  fs::create_directories(config.work_dir);
  const Phases phase = phases(config.seconds);
  Plan plan = make_plan(config.seed, phase.open_jobs);
  std::string state = fresh_state(config, "traced");
  std::size_t history_jobs = 0;
  {
    std::size_t ignored = 0;
    history_jobs = ledger_rows_checked(state, &ignored);
  }
  const double journal_bytes = file_bytes(pc::ServerCore::journal_path(state));
  const double ledger_bytes = file_bytes(pc::ServerCore::ledger_path(state));

  pe::LocalExecutor local;
  TracingExecutor traced(local);
  pc::ServerConfig server_config;
  server_config.state_dir = state;
  server_config.slots = kSlots;
  const double cpu0 = children_cpu_seconds();
  const double r0 = mono_now();
  auto core = std::make_unique<pc::ServerCore>(server_config, traced);
  const double replay_s = mono_now() - r0;
  for (std::size_t i = 0; i < plan.tenants.size(); ++i) {
    core->attach_tenant(plan.tenants[i], plan.weights[i]);
  }

  // The codec runs as the socket path would: the tenant encodes SUBMIT, the
  // server decodes it; the server encodes STDOUT+RESULT, the tenant decodes.
  double encode_s = 0.0, decode_s = 0.0, wire_bytes = 0.0;
  std::uint64_t frames = 0;
  std::vector<double> submit_us, queue_wait_ms;
  std::map<std::uint64_t, double> submitted_at;  // intake id -> executor clock
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> expect;  // (tenant, seq)
  std::vector<std::uint64_t> next_seq(plan.tenants.size(), 1);
  double step_s = 0.0, step_exec_s = 0.0;
  std::size_t submits = 0, rejects = 0, completed = 0, failed = 0;

  auto send_job = [&](std::size_t tenant) {
    std::string token = plan.next_token();
    double t0 = mono_now();
    std::string bytes = tp::encode_submit(submit_frame(next_seq[tenant]++, token));
    double t1 = mono_now();
    tp::FrameDecoder decoder;
    decoder.feed(bytes);
    tp::SubmitFrame frame = tp::decode_submit(*decoder.next());
    double t2 = mono_now();
    encode_s += t1 - t0;
    decode_s += t2 - t1;
    wire_bytes += static_cast<double>(bytes.size());
    ++frames;
    for (const tp::JobSpec& job : frame.jobs) {
      double s0 = mono_now();
      pc::Admission admission = core->submit(plan.tenants[tenant], job.seq, job.command,
                                             job.stdin_data, job.has_stdin);
      submit_us.push_back((mono_now() - s0) * 1e6);
      ++submits;
      if (!admission.accepted) {
        ++rejects;
        ++failed;
        continue;
      }
      submitted_at[admission.intake_id] = traced.now();
      expect[{tenant, job.seq}] = token + "\n";
    }
  };
  auto step = [&](double timeout) {
    const double exec_before = traced.call_seconds();
    const double t0 = mono_now();
    core->step(timeout);
    step_s += mono_now() - t0;
    step_exec_s += traced.call_seconds() - exec_before;
    std::vector<std::size_t> finished_by(plan.tenants.size(), 0);
    for (pc::TenantEvent& event : core->take_events()) {
      const pc::JobResult& result = event.result;
      tp::ResultFrame frame;
      frame.seq = result.seq;
      frame.exit_code = result.exit_code;
      tp::ChunkFrame chunk;
      chunk.seq = result.seq;
      chunk.data = result.stdout_data;
      double e0 = mono_now();
      std::string bytes = tp::encode_chunk(tp::FrameType::kStdout, chunk) + tp::encode_result(frame);
      double e1 = mono_now();
      tp::FrameDecoder decoder;
      decoder.feed(bytes);
      tp::ChunkFrame got_chunk = tp::decode_chunk(*decoder.next());
      tp::ResultFrame got = tp::decode_result(*decoder.next());
      double e2 = mono_now();
      encode_s += e1 - e0;
      decode_s += e2 - e1;
      wire_bytes += static_cast<double>(bytes.size());
      frames += 2;
      ++completed;
      auto tenant = std::find(plan.tenants.begin(), plan.tenants.end(), event.tenant);
      if (tenant == plan.tenants.end()) {
        ++failed;
        continue;
      }
      const std::size_t index = static_cast<std::size_t>(tenant - plan.tenants.begin());
      ++finished_by[index];
      auto wanted = expect.find({index, got.seq});
      if (got.exit_code != 0 || wanted == expect.end() || wanted->second != got_chunk.data) {
        ++failed;
      }
      if (wanted != expect.end()) expect.erase(wanted);
    }
    return finished_by;
  };

  // Open loop on the seeded schedule.
  double phase_start = mono_now();
  std::size_t next = 0;
  while (next < plan.open_at.size() || !core->idle()) {
    double now = mono_now() - phase_start;
    if (now > kPhaseTimeout) throw std::runtime_error("traced open loop timed out");
    while (next < plan.open_at.size() && plan.open_at[next] <= now) {
      send_job(plan.open_tenant[next++]);
    }
    double wait = next < plan.open_at.size() ? plan.open_at[next] - (mono_now() - phase_start)
                                             : 0.005;
    step(std::clamp(wait, 0.0, 0.005));
  }

  // Closed loop.
  const std::size_t completed_before = completed;
  phase_start = mono_now();
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    for (std::size_t w = 0; w < kOutstanding; ++w) send_job(t);
  }
  double last = 0.0;
  while (!core->idle()) {
    if (mono_now() - phase_start > phase.closed_seconds + kPhaseTimeout) {
      throw std::runtime_error("traced closed loop timed out");
    }
    std::vector<std::size_t> finished_by = step(0.005);
    last = mono_now() - phase_start;
    for (std::size_t t = 0; t < finished_by.size(); ++t) {
      for (std::size_t k = 0; k < finished_by[t] && last < phase.closed_seconds; ++k) send_job(t);
    }
  }
  // Every accepted job must come back exactly once; one still expected was
  // lost.
  failed += expect.size();
  const std::size_t closed_done = completed - completed_before;
  core.reset();
  const double child_cpu = children_cpu_seconds() - cpu0;

  const ExecTrace t = traced.merged();
  for (const auto& [id, at] : submitted_at) {
    auto started = t.start_entry.find(id);
    if (started != t.start_entry.end()) queue_wait_ms.push_back((started->second - at) * 1e3);
  }
  fs::remove_all(state);

  auto per = [](double total, double n) { return n == 0 ? 0.0 : total / n; };
  Metrics m;
  for (const std::string& name : per_layer_names()) m.set(name, 0.0);
  m.set("exec.local.spawn_us_p50", quantile(t.spawn_us, 0.50));
  m.set("exec.local.spawn_us_p99", quantile(t.spawn_us, 0.99));
  m.set("exec.local.spawn_failed", static_cast<double>(t.start_failed));
  m.set("exec.local.wait_us_per_job", per(t.wait_seconds * 1e6, t.completions));
  m.set("exec.local.empty_waits_frac", per(static_cast<double>(t.empty_waits), t.waits));
  m.set("exec.local.child_us_p50", quantile(t.child_us, 0.50));
  m.set("exec.local.child_us_p99", quantile(t.child_us, 0.99));
  m.set("exec.local.notify_us_p50", quantile(t.notify_us, 0.50));
  m.set("exec.local.notify_us_p99", quantile(t.notify_us, 0.99));
  m.set("exec.local.out_bytes_per_job", per(static_cast<double>(t.out_bytes), t.completions));
  m.set("exec.local.child_cpu_ms_per_job", per(child_cpu * 1e3, completed));
  m.set("exec.transport.encode_ns_per_frame", per(encode_s * 1e9, frames));
  m.set("exec.transport.decode_ns_per_frame", per(decode_s * 1e9, frames));
  m.set("exec.transport.wire_bytes_per_job", per(wire_bytes, completed));
  m.set("core.server.submit_us_p50", quantile(submit_us, 0.50));
  m.set("core.server.submit_us_p99", quantile(submit_us, 0.99));
  m.set("core.server.step_self_us_per_job", per((step_s - step_exec_s) * 1e6, completed));
  m.set("core.server.queue_wait_ms_p50", quantile(queue_wait_ms, 0.50));
  m.set("core.server.queue_wait_ms_p99", quantile(queue_wait_ms, 0.99));
  m.set("core.server.replay_s", replay_s);
  m.set("core.server.journal_bytes_per_job", per(journal_bytes, history_jobs));
  m.set("core.server.ledger_bytes_per_job", per(ledger_bytes, history_jobs));
  m.set("core.server.rejects_frac", per(static_cast<double>(rejects), submits));
  m.set("jobs_per_s", last > 0 ? closed_done / last : 0.0);
  m.set("attempted", static_cast<double>(submits));
  m.set("failed", static_cast<double>(failed));
  return m;
}

}  // namespace perfbench
