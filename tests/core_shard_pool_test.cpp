// ShardPool: the executor behind --dispatchers N. Starts for a shard that is
// blocked waiting on its running children must begin at once (via
// Executor::wake()), not when that shard's wait next times out.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/shard_pool.hpp"
#include "exec/local_executor.hpp"

namespace parcl::core {
namespace {

ExecRequest request(std::uint64_t job_id, const char* command, std::size_t slot) {
  ExecRequest req;
  req.job_id = job_id;
  req.command = command;
  req.slot = slot;
  return req;
}

TEST(ShardPool, StartOnABlockedShardBeginsAtOnce) {
  exec::LocalExecutor parent;
  std::vector<double> delays;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::unique_ptr<Executor>> shards;
    for (int i = 0; i < 2; ++i) {
      shards.push_back(parent.make_shard());
      if (shards.back() == nullptr) GTEST_SKIP() << "kernel lacks pidfds";
    }
    ShardPool pool(parent, std::move(shards));
    // Slots 1 and 3 both route to shard 0, which blocks on the sleeper.
    pool.start(request(1, "sleep 2", 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double handed = pool.now();
    pool.start(request(2, "true", 3));
    std::optional<ExecResult> result = pool.wait_any(5.0);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->job_id, 2u);
    EXPECT_EQ(result->exit_code, 0);
    delays.push_back(result->start_time - handed);
    pool.kill(1, /*force=*/true);
    ASSERT_TRUE(pool.wait_any(5.0).has_value());
  }
  std::sort(delays.begin(), delays.end());
  EXPECT_LT(delays[2], 0.010) << "median start delay " << delays[2] << " s";
}

}  // namespace
}  // namespace parcl::core
