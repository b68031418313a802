// ShardPool: the executor the engine drives when --dispatchers shards the
// dispatch hot path.
//
// The engine loop keeps every ordering and durability decision (seqs,
// retries, --halt, timeouts, signals, collation, the joblog); the pool only
// parallelises what actually scales, spawning and reaping. N threads each
// drive one Executor::make_shard() instance:
//   - start() and kill_signal() for slot s go to shard (s - 1) mod N through
//     that shard's FIFO inbox, so a kill can never overtake the start of the
//     job it targets;
//   - completions, including asynchronous spawn failures (ExecResult::
//     spawn_error), come back through one unbounded queue;
//   - the clock and host introspection forward to the parent executor.
//
// Every method must be called from the one engine thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "core/job.hpp"
#include "util/blocking_queue.hpp"

namespace parcl::core {

class ShardPool final : public Executor {
 public:
  /// Starts one thread per shard. `parent` answers now() and the host
  /// introspection calls, and must outlive the pool; `shards` must be
  /// non-empty and made by `parent.make_shard()`.
  ShardPool(Executor& parent, std::vector<std::unique_ptr<Executor>> shards);
  /// Stops and joins the threads, then destroys the shards, which kills any
  /// child still running.
  ~ShardPool() override;
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  void start(const ExecRequest& request) override;
  /// Rethrows the error that stopped a shard thread, once every completion
  /// queued before it has been returned.
  std::optional<ExecResult> wait_any(double timeout_seconds) override;
  void kill(std::uint64_t job_id, bool force) override;
  void kill_signal(std::uint64_t job_id, int sig) override;
  ResourcePressure pressure() const override { return parent_.pressure(); }
  bool slot_usable(std::size_t slot) const override { return parent_.slot_usable(slot); }
  bool same_failure_domain(std::size_t a, std::size_t b) const override {
    return parent_.same_failure_domain(a, b);
  }
  std::size_t live_host_count() const override { return parent_.live_host_count(); }
  std::size_t active_count() const override { return owner_.size(); }
  double now() const override { return parent_.now(); }

  std::size_t size() const noexcept { return shards_.size(); }

  /// Joins the shard threads and returns their dispatch counters summed.
  /// Call once the run has drained; the pool accepts no work afterwards.
  DispatchCounters finish();

 private:
  /// One inbox entry: a kill_signal() when `signal` is non-zero, else a
  /// start() of `request`.
  struct Command {
    ExecRequest request;
    std::uint64_t job_id = 0;
    int signal = 0;
  };
  struct Shard {
    std::unique_ptr<Executor> exec;
    std::mutex mutex;  // guards inbox, waiting, stop
    std::condition_variable ready;
    std::deque<Command> inbox;
    bool waiting = false;  // blocked in exec->wait_any(): a post must wake it
    bool stop = false;
    std::thread thread;
  };

  void run(Shard& shard);
  void post(Shard& shard, Command command);
  void join();

  Executor& parent_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::uint64_t, std::size_t> owner_;  // in flight -> shard
  util::BlockingQueue<ExecResult> completions_;  // unbounded
  std::mutex failure_mutex_;
  std::exception_ptr failure_;  // first error that stopped a shard thread
};

}  // namespace parcl::core
