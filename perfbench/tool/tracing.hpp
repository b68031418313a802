// Pass-through tracing decorators over parcl's public layer interfaces.
//
// Each decorator forwards every call to the wrapped object unchanged and
// times it from outside, so the traced run follows the same code paths as
// the CLI without touching src/. The executor wrapper must forward every
// virtual: Executor::make_shard() defaults to nullptr, so a wrapper that
// forgot it would silently pin the engine to its serial loop.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <streambuf>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "core/job_source.hpp"

namespace perfbench {

/// What one executor (or one executor shard) saw. Written by the single
/// thread driving that executor; read after the run.
struct ExecTrace {
  std::uint64_t starts = 0;
  std::uint64_t start_failed = 0;
  std::uint64_t waits = 0;
  std::uint64_t empty_waits = 0;
  std::uint64_t completions = 0;
  double start_seconds = 0.0;
  double wait_seconds = 0.0;
  double active_at_wait_sum = 0.0;  // active_count() summed at wait_any entry
  std::uint64_t out_bytes = 0;
  std::vector<double> spawn_us;      // inside start()
  std::vector<double> child_us;      // result.end_time - start() return
  std::vector<double> notify_us;     // wait_any() return - result.end_time
  std::vector<double> roundtrip_us;  // start() entry -> wait_any() return
  /// Executor clock at start() entry, by job id (the service's queue wait).
  std::unordered_map<std::uint64_t, double> start_entry;
  std::unordered_map<std::uint64_t, double> start_return;

  void merge(const ExecTrace& other);
};

class TracingExecutor final : public parcl::core::Executor {
 public:
  explicit TracingExecutor(parcl::core::Executor& inner);
  explicit TracingExecutor(std::unique_ptr<parcl::core::Executor> owned);

  void start(const parcl::core::ExecRequest& request) override;
  std::optional<parcl::core::ExecResult> wait_any(double timeout_seconds) override;
  void kill(std::uint64_t job_id, bool force) override;
  void kill_signal(std::uint64_t job_id, int sig) override;
  parcl::core::ResourcePressure pressure() const override;
  bool slot_usable(std::size_t slot) const override;
  bool same_failure_domain(std::size_t a, std::size_t b) const override;
  std::size_t slot_capacity() const override;
  std::size_t live_host_count() const override;
  std::size_t active_count() const override;
  double now() const override;
  std::unique_ptr<parcl::core::Executor> make_shard() override;
  const parcl::core::DispatchCounters* dispatch_counters() const override;

  /// This executor's trace plus every shard's, merged. Call after the run.
  ExecTrace merged() const;
  /// Seconds spent inside start() and wait_any(), over all shards.
  double call_seconds() const;
  /// Shards handed out by make_shard().
  std::size_t shard_count() const { return shards_.size(); }
  /// Mean of active_count() at wait_any entry, summed over shards (each
  /// shard sees only its own slot range).
  double inflight_mean() const;

 private:
  std::unique_ptr<parcl::core::Executor> owned_;
  parcl::core::Executor& inner_;
  std::shared_ptr<ExecTrace> trace_ = std::make_shared<ExecTrace>();
  std::vector<std::shared_ptr<ExecTrace>> shards_;
};

/// Times JobSource::next().
class TracingSource final : public parcl::core::JobSource {
 public:
  explicit TracingSource(parcl::core::JobSource& inner) : inner_(inner) {}
  std::optional<parcl::core::JobInput> next() override;

  std::uint64_t pulls() const { return pulls_; }
  double seconds() const { return seconds_; }

 private:
  parcl::core::JobSource& inner_;
  std::uint64_t pulls_ = 0;
  double seconds_ = 0.0;
};

/// A streambuf for the engine's `out`: counts bytes and write calls, times
/// them, and forwards to `sink` (nullptr discards).
class CountingBuf final : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf* sink) : sink_(sink) {}

  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t write_calls() const { return write_calls_; }
  double seconds() const { return seconds_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize n) override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  std::streambuf* sink_;
  std::uint64_t bytes_ = 0;
  std::uint64_t write_calls_ = 0;
  double seconds_ = 0.0;
};

}  // namespace perfbench
