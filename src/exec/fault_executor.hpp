// FaultInjectingExecutor: deterministic fault injection around any Executor.
//
// Wraps a real backend (LocalExecutor, FunctionExecutor, SimExecutor) and,
// driven by a seeded fault plan, injects the failure classes the paper's
// scale guarantees: spawn errors, mid-run kills, nonzero exits, torn
// (truncated) output, and straggler completion delays. Every decision is
// derived from (plan.seed, command hash, per-command attempt index), never
// from wall-clock time or completion order — so a fault schedule replays
// bit-for-bit from its seed alone, even over a multi-threaded backend whose
// job ids land in a different order on every run. The chaos-soak harness
// (tests/chaos_soak_test.cpp) leans on exactly this property.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "core/executor.hpp"
#include "exec/multi_executor.hpp"
#include "exec/sim_executor.hpp"
#include "sim/duration_model.hpp"
#include "sim/node_failure.hpp"
#include "util/rng.hpp"

namespace parcl::exec {

/// Per-attempt fault probabilities. All in [0, 1]; the classes are drawn
/// independently in a fixed order so adding one class never perturbs the
/// draws of another.
struct FaultPlan {
  std::uint64_t seed = 1;

  /// start() throws util::SystemError without reaching the backend — the
  /// engine sees a spawn failure (exit 127) and retries the attempt.
  double spawn_failure_prob = 0.0;

  /// The attempt's completion is rewritten to death-by-SIGKILL, modelling a
  /// lost node or OOM kill mid-run.
  double kill_prob = 0.0;

  /// The attempt's completion is rewritten to exit(fail_exit_code).
  double fail_prob = 0.0;
  int fail_exit_code = 1;

  /// The attempt's stdout is torn at a random byte offset AND the exit code
  /// forced nonzero: truncated output accompanies a dying task, never a
  /// success, so retried jobs converge on clean output.
  double truncate_prob = 0.0;

  /// Completion delivery is delayed (straggler): wait_any() holds the
  /// result until the backend clock reaches completion + delay. The job's
  /// own timings are untouched — this models late completion *news*, which
  /// is what stresses the engine's deadline/active bookkeeping.
  double straggler_prob = 0.0;
  double straggler_delay_min = 0.0;
  double straggler_delay_max = 0.0;

  /// True when no fault class has a positive probability.
  bool inert() const noexcept;
};

/// Tallies of what was actually injected, for assertions and benches.
struct FaultCounters {
  std::uint64_t started = 0;          // start() calls forwarded to the backend
  std::uint64_t delivered = 0;        // results returned from wait_any()
  std::uint64_t spawn_failures = 0;
  std::uint64_t kills = 0;
  std::uint64_t exit_rewrites = 0;
  std::uint64_t truncations = 0;
  std::uint64_t stragglers = 0;
};

class FaultInjectingExecutor final : public core::Executor {
 public:
  /// Wraps `inner` (not owned; must outlive this executor).
  FaultInjectingExecutor(core::Executor& inner, FaultPlan plan);

  /// Owning variant: the wrapped backend lives and dies with the injector.
  /// This is what lets a fault schedule target one host of a MultiExecutor,
  /// whose make_executor hands ownership of each per-host backend over.
  FaultInjectingExecutor(std::unique_ptr<core::Executor> inner, FaultPlan plan);

  void start(const core::ExecRequest& request) override;
  std::optional<core::ExecResult> wait_any(double timeout_seconds) override;
  void kill(std::uint64_t job_id, bool force) override;
  void kill_signal(std::uint64_t job_id, int sig) override {
    inner_->kill_signal(job_id, sig);
  }
  core::ResourcePressure pressure() const override { return inner_->pressure(); }
  /// Health/hedging introspection passes through: wrapping a MultiExecutor
  /// must not hide its quarantine vetoes or failure domains.
  bool slot_usable(std::size_t slot) const override {
    return inner_->slot_usable(slot);
  }
  bool same_failure_domain(std::size_t a, std::size_t b) const override {
    return inner_->same_failure_domain(a, b);
  }
  /// Includes results held back by straggler delays: the engine still owns
  /// those jobs until wait_any() surfaces them.
  std::size_t active_count() const override;
  double now() const override { return inner_->now(); }
  /// Forwards to the backend and ends the current (or next) wait_any()
  /// even while straggler results are held.
  void wake() override;

  /// Shards the wrapped backend and hands the shard an injector that SHARES
  /// this one's per-command attempt streams and counters (mutex-protected):
  /// the fault decision for (command, attempt#) must not depend on which
  /// dispatcher shard happens to run the attempt. Returns nullptr when the
  /// backend cannot shard.
  std::unique_ptr<core::Executor> make_shard() override;

  /// Tallies, summed across this injector and every shard made from it.
  /// Read after the ShardPool threads join (or from the driving thread).
  const FaultCounters& counters() const noexcept { return shared_->counters; }

 private:
  struct Decision {
    bool spawn_fail = false;
    bool kill = false;
    bool fail = false;
    bool truncate = false;
    double truncate_fraction = 1.0;  // keep this fraction of stdout
    double delay = 0.0;              // straggler hold, seconds
  };
  struct Held {
    core::ExecResult result;
    double release_time = 0.0;
  };
  /// Decision-stream and tally state shared between a parent injector and
  /// its shards, so schedules replay identically however work is sharded.
  struct SharedState {
    std::mutex mu;
    std::unordered_map<std::string, std::uint64_t> attempt_index;
    FaultCounters counters;
  };

  /// Shard constructor: adopts the parent's shared decision state.
  FaultInjectingExecutor(std::unique_ptr<core::Executor> inner, FaultPlan plan,
                         std::shared_ptr<SharedState> shared);

  /// Draws the fault decision for one attempt of `command`. The attempt
  /// index is tracked per command string, so the decision stream is stable
  /// under any interleaving of starts and completions. (Jobs sharing one
  /// exact command string share an attempt stream; give jobs distinct
  /// commands — e.g. include {#} — when per-job determinism matters over a
  /// multi-threaded backend.)
  Decision decide(const std::string& command);
  void apply(const Decision& decision, core::ExecResult& result);
  /// Pops the due held result with the smallest (release_time, job_id), or
  /// nullopt when none is due at the inner clock's current time.
  std::optional<core::ExecResult> take_due_held();

  std::unique_ptr<core::Executor> owned_;  // null for the borrowing ctor
  core::Executor* inner_;
  FaultPlan plan_;
  std::shared_ptr<SharedState> shared_;
  std::map<std::uint64_t, Decision> pending_;  // started job -> decision
  std::vector<Held> held_;                     // straggler holding pen
  std::atomic<bool> woken_{false};             // set by wake(), any thread
};

/// Builds a SimExecutor TaskModel that samples service times from
/// `durations` and kills any job whose node (slot -> node round-robin) dies
/// mid-run per `churn`: the job ends at the failure instant with
/// death-by-SIGKILL semantics (exit 137), modelling lost-node churn at
/// cluster scale. All referenced objects must outlive the returned callable.
TaskModel churn_task_model(sim::Simulation& sim, sim::DurationModel& durations,
                           sim::NodeChurnModel& churn, util::Rng& rng);

/// Builds a MultiExecutor `make_executor` that wraps the backend of each
/// host named in `plans` with a FaultInjectingExecutor running that host's
/// plan — the deterministic way to make exactly one host of a cluster sick
/// (e.g. to drive it into quarantine) while the rest stay clean. Hosts
/// absent from the map get the plain `base` backend. When `taps` is given,
/// each wrapped host's injector is exposed there (pointers stay valid for
/// the life of the MultiExecutor) so tests can read its FaultCounters.
std::function<std::unique_ptr<core::Executor>(const HostSpec&)>
per_host_fault_factory(
    std::function<std::unique_ptr<core::Executor>(const HostSpec&)> base,
    std::map<std::string, FaultPlan> plans,
    std::map<std::string, FaultInjectingExecutor*>* taps = nullptr);

}  // namespace parcl::exec
