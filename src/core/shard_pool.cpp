#include "core/shard_pool.hpp"

#include <csignal>
#include <utility>

#include "util/error.hpp"

namespace parcl::core {

namespace {

// Longest a shard blocks in wait_any() before looking at its inbox again.
// Shards that implement Executor::wake() are interrupted at once; this cap
// only bounds start latency on shards that do not.
constexpr double kShardWaitCap = 0.05;

}  // namespace

ShardPool::ShardPool(Executor& parent, std::vector<std::unique_ptr<Executor>> shards)
    : parent_(parent) {
  util::require(!shards.empty(), "ShardPool needs at least one shard");
  shards_.reserve(shards.size());
  for (auto& exec : shards) {
    auto shard = std::make_unique<Shard>();
    shard->exec = std::move(exec);
    shards_.push_back(std::move(shard));
  }
  try {
    for (auto& shard : shards_) {
      Shard* raw = shard.get();
      raw->thread = std::thread([this, raw] { run(*raw); });
    }
  } catch (...) {
    join();
    throw;
  }
}

ShardPool::~ShardPool() { join(); }

void ShardPool::join() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stop = true;
    }
    shard->ready.notify_one();
    shard->exec->wake();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

DispatchCounters ShardPool::finish() {
  join();
  DispatchCounters total;
  for (const auto& shard : shards_) {
    if (const DispatchCounters* counters = shard->exec->dispatch_counters()) {
      total.merge(*counters);
    }
  }
  return total;
}

void ShardPool::run(Shard& shard) {
  Executor& exec = *shard.exec;
  try {
    std::deque<Command> batch;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(shard.mutex);
        shard.waiting = false;
        shard.ready.wait(lock, [&] {
          return shard.stop || !shard.inbox.empty() || exec.active_count() != 0;
        });
        if (shard.stop) return;
        batch.swap(shard.inbox);
        shard.waiting = batch.empty();
      }
      if (batch.empty()) {
        if (auto done = exec.wait_any(kShardWaitCap)) completions_.push(std::move(*done));
        continue;
      }
      for (Command& command : batch) {
        if (command.signal != 0) {
          exec.kill_signal(command.job_id, command.signal);
          continue;
        }
        try {
          exec.start(command.request);
        } catch (const util::SystemError& error) {
          ExecResult failed;
          failed.job_id = command.job_id;
          failed.spawn_error = error.what();
          failed.start_time = exec.now();
          failed.end_time = failed.start_time;
          completions_.push(std::move(failed));
        }
      }
      batch.clear();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(failure_mutex_);
      if (!failure_) failure_ = std::current_exception();
    }
    completions_.close();  // wakes the engine so wait_any() can rethrow
  }
}

void ShardPool::post(Shard& shard, Command command) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inbox.push_back(std::move(command));
    wake = shard.waiting;
    shard.waiting = false;  // one wake per blocking wait
  }
  shard.ready.notify_one();
  if (wake) shard.exec->wake();
}

void ShardPool::start(const ExecRequest& request) {
  std::size_t index = (request.slot - 1) % shards_.size();
  owner_.emplace(request.job_id, index);
  post(*shards_[index], Command{request, request.job_id, 0});
}

std::optional<ExecResult> ShardPool::wait_any(double timeout_seconds) {
  std::optional<ExecResult> result;
  if (timeout_seconds < 0.0) {
    if (owner_.empty()) return std::nullopt;
    result = completions_.pop();
  } else {
    result = completions_.pop_for(timeout_seconds);
  }
  if (!result) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (failure_) std::rethrow_exception(failure_);
    return std::nullopt;
  }
  owner_.erase(result->job_id);
  return result;
}

void ShardPool::kill(std::uint64_t job_id, bool force) {
  kill_signal(job_id, force ? SIGKILL : SIGTERM);
}

void ShardPool::kill_signal(std::uint64_t job_id, int sig) {
  auto it = owner_.find(job_id);
  if (it == owner_.end()) return;  // already returned by wait_any()
  post(*shards_[it->second], Command{{}, job_id, sig});
}

}  // namespace parcl::core
