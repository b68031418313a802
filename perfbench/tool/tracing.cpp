#include "tracing.hpp"

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace pc = parcl::core;

void ExecTrace::merge(const ExecTrace& other) {
  starts += other.starts;
  start_failed += other.start_failed;
  waits += other.waits;
  empty_waits += other.empty_waits;
  completions += other.completions;
  start_seconds += other.start_seconds;
  wait_seconds += other.wait_seconds;
  active_at_wait_sum += other.active_at_wait_sum;
  out_bytes += other.out_bytes;
  spawn_us.insert(spawn_us.end(), other.spawn_us.begin(), other.spawn_us.end());
  child_us.insert(child_us.end(), other.child_us.begin(), other.child_us.end());
  notify_us.insert(notify_us.end(), other.notify_us.begin(), other.notify_us.end());
  roundtrip_us.insert(roundtrip_us.end(), other.roundtrip_us.begin(),
                      other.roundtrip_us.end());
  start_entry.insert(other.start_entry.begin(), other.start_entry.end());
  start_return.insert(other.start_return.begin(), other.start_return.end());
}

TracingExecutor::TracingExecutor(pc::Executor& inner) : inner_(inner) {}

TracingExecutor::TracingExecutor(std::unique_ptr<pc::Executor> owned)
    : owned_(std::move(owned)), inner_(*owned_) {}

void TracingExecutor::start(const pc::ExecRequest& request) {
  ExecTrace& t = *trace_;
  const double entry = inner_.now();
  const double t0 = mono_now();
  try {
    inner_.start(request);
  } catch (const parcl::util::Error&) {
    ++t.start_failed;
    t.start_seconds += mono_now() - t0;
    throw;
  }
  const double spent = mono_now() - t0;
  ++t.starts;
  t.start_seconds += spent;
  t.spawn_us.push_back(spent * 1e6);
  t.start_entry[request.job_id] = entry;
  t.start_return[request.job_id] = inner_.now();
}

std::optional<pc::ExecResult> TracingExecutor::wait_any(double timeout_seconds) {
  ExecTrace& t = *trace_;
  t.active_at_wait_sum += static_cast<double>(inner_.active_count());
  const double t0 = mono_now();
  std::optional<pc::ExecResult> result = inner_.wait_any(timeout_seconds);
  t.wait_seconds += mono_now() - t0;
  ++t.waits;
  if (!result) {
    ++t.empty_waits;
    return result;
  }
  const double returned = inner_.now();
  ++t.completions;
  t.out_bytes += result->stdout_data.size() + result->stderr_data.size();
  auto started = t.start_return.find(result->job_id);
  if (started != t.start_return.end()) {
    t.child_us.push_back((result->end_time - started->second) * 1e6);
    t.notify_us.push_back((returned - result->end_time) * 1e6);
    t.roundtrip_us.push_back((returned - t.start_entry[result->job_id]) * 1e6);
  }
  return result;
}

void TracingExecutor::kill(std::uint64_t job_id, bool force) { inner_.kill(job_id, force); }

void TracingExecutor::kill_signal(std::uint64_t job_id, int sig) {
  inner_.kill_signal(job_id, sig);
}

pc::ResourcePressure TracingExecutor::pressure() const { return inner_.pressure(); }

bool TracingExecutor::slot_usable(std::size_t slot) const {
  return inner_.slot_usable(slot);
}

bool TracingExecutor::same_failure_domain(std::size_t a, std::size_t b) const {
  return inner_.same_failure_domain(a, b);
}

std::size_t TracingExecutor::slot_capacity() const { return inner_.slot_capacity(); }

std::size_t TracingExecutor::live_host_count() const { return inner_.live_host_count(); }

std::size_t TracingExecutor::active_count() const { return inner_.active_count(); }

double TracingExecutor::now() const { return inner_.now(); }

std::unique_ptr<pc::Executor> TracingExecutor::make_shard() {
  std::unique_ptr<pc::Executor> inner_shard = inner_.make_shard();
  if (!inner_shard) return nullptr;
  auto shard = std::make_unique<TracingExecutor>(std::move(inner_shard));
  shards_.push_back(shard->trace_);
  return shard;
}

const pc::DispatchCounters* TracingExecutor::dispatch_counters() const {
  return inner_.dispatch_counters();
}

ExecTrace TracingExecutor::merged() const {
  ExecTrace all = *trace_;
  for (const auto& shard : shards_) all.merge(*shard);
  return all;
}

double TracingExecutor::call_seconds() const {
  double total = trace_->start_seconds + trace_->wait_seconds;
  for (const auto& shard : shards_) total += shard->start_seconds + shard->wait_seconds;
  return total;
}

double TracingExecutor::inflight_mean() const {
  auto mean = [](const ExecTrace& t) {
    return t.waits == 0 ? 0.0 : t.active_at_wait_sum / static_cast<double>(t.waits);
  };
  double total = mean(*trace_);
  for (const auto& shard : shards_) total += mean(*shard);
  return total;
}

std::optional<pc::JobInput> TracingSource::next() {
  const double t0 = mono_now();
  std::optional<pc::JobInput> job = inner_.next();
  seconds_ += mono_now() - t0;
  ++pulls_;
  return job;
}

std::streamsize CountingBuf::xsputn(const char* data, std::streamsize n) {
  const double t0 = mono_now();
  ++write_calls_;
  bytes_ += static_cast<std::uint64_t>(n);
  std::streamsize written = sink_ ? sink_->sputn(data, n) : n;
  seconds_ += mono_now() - t0;
  return written;
}

CountingBuf::int_type CountingBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
  const double t0 = mono_now();
  ++write_calls_;
  ++bytes_;
  int_type result = sink_ ? sink_->sputc(traits_type::to_char_type(ch)) : ch;
  seconds_ += mono_now() - t0;
  return result;
}

int CountingBuf::sync() {
  const double t0 = mono_now();
  int result = sink_ ? sink_->pubsync() : 0;
  seconds_ += mono_now() - t0;
  return result;
}

}  // namespace perfbench
