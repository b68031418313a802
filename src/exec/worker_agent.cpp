#include "exec/worker_agent.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>

#include "exec/local_executor.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace parcl::exec {

namespace {

}  // namespace

WorkerAgent::WorkerAgent(WorkerConfig config) : config_(std::move(config)) {
  if (!config_.make_inner) {
    config_.make_inner = [] { return std::make_unique<LocalExecutor>(); };
  }
  util::require(config_.heartbeat_interval > 0.0, "heartbeat interval must be > 0");
  inner_ = config_.make_inner();
}

WorkerAgent::~WorkerAgent() = default;

double WorkerAgent::now() const { return util::monotonic_seconds(); }

void WorkerAgent::send_hello(transport::Channel& channel) {
  transport::HelloFrame hello;
  hello.version = config_.version;
  hello.worker_now = now();
  hello.running.assign(running_.begin(), running_.end());
  hello.completed_unacked.reserve(journal_.size());
  for (auto& [seq, entry] : journal_) {
    hello.completed_unacked.push_back(entry.result);
    entry.last_sent = 0.0;  // fresh link: replay everything after HELLO
  }
  channel.send(transport::encode_hello(hello));
}

void WorkerAgent::send_unacked(transport::Channel& channel, bool force) {
  double resend_age = config_.resend_after_beats * config_.heartbeat_interval;
  for (auto& [seq, entry] : journal_) {
    // A retransmit waits for an empty outbuf, so a pilot that stopped
    // reading cannot make the agent queue the same entry again and again.
    bool due = entry.last_sent == 0.0 || force ||
               (now() - entry.last_sent >= resend_age && !channel.want_write());
    if (!due) continue;
    entry.last_sent = now();
    channel.send(transport::encode_job_output(entry.result, entry.stdout_data,
                                              entry.stderr_data));
  }
}

void WorkerAgent::journal_completion(core::ExecResult&& result) {
  running_.erase(result.job_id);
  JournalEntry entry;
  entry.result.seq = result.job_id;
  entry.result.exit_code = result.exit_code;
  entry.result.term_signal = result.term_signal;
  entry.result.start_time = result.start_time;
  entry.result.end_time = result.end_time;
  auto chunks = [](const std::string& data) {
    return (data.size() + transport::kChunkBytes - 1) / transport::kChunkBytes;
  };
  entry.result.stdout_chunks = chunks(result.stdout_data);
  entry.result.stderr_chunks = chunks(result.stderr_data);
  entry.stdout_data = std::move(result.stdout_data);
  entry.stderr_data = std::move(result.stderr_data);
  journal_[entry.result.seq] = std::move(entry);
}

void WorkerAgent::pump_inner() {
  while (std::optional<core::ExecResult> result = inner_->wait_any(0.0)) {
    journal_completion(std::move(*result));
  }
}

void WorkerAgent::handle_submit(const transport::Frame& frame) {
  transport::SubmitFrame submit = transport::decode_submit(frame);
  for (transport::JobSpec& job : submit.jobs) {
    // A replayed or duplicated SUBMIT must be idempotent: every seq runs
    // at most once per agent life.
    if (running_.count(job.seq) != 0 || journal_.count(job.seq) != 0) continue;
    core::ExecRequest request;
    request.job_id = job.seq;
    request.command = std::move(job.command);
    request.slot = job.slot;
    request.use_shell = job.use_shell;
    // Always capture: under ssh the agent's stdout is the frame stream, and
    // a job that inherited it would write straight into the protocol.
    request.capture_output = true;
    request.has_stdin = job.has_stdin;
    request.stdin_data = std::move(job.stdin_data);
    for (auto& [key, value] : job.env) request.env[key] = value;
    ++total_starts_;
    try {
      inner_->start(request);
      running_.insert(job.seq);
    } catch (const util::SystemError&) {
      // Worker-side spawn failure: report the engine's spawn-failure
      // convention (exit 127) as a normal RESULT; the pilot's engine
      // decides whether to retry or charge it.
      core::ExecResult failed;
      failed.job_id = job.seq;
      failed.exit_code = 127;
      failed.start_time = failed.end_time = now();
      journal_completion(std::move(failed));
    }
  }
}

void WorkerAgent::handle_kill(const transport::Frame& frame) {
  transport::KillFrame kill = transport::decode_kill(frame);
  if (running_.count(kill.seq) == 0) return;  // finished or never started
  if (kill.signal != 0) {
    inner_->kill_signal(kill.seq, kill.signal);
  } else {
    inner_->kill(kill.seq, kill.force);
  }
}

void WorkerAgent::handle_ack(const transport::Frame& frame) {
  transport::AckFrame ack = transport::decode_ack(frame);
  for (std::uint64_t seq : ack.seqs) journal_.erase(seq);
}

void WorkerAgent::crash_now() {
  // The inner executor's destructor kills and reaps every child; a crashed
  // agent leaves nothing behind but also remembers nothing.
  inner_.reset();
  inner_ = config_.make_inner();
  running_.clear();
  journal_.clear();
  config_.faults.crash_after_starts = 0;  // one-shot
}

WorkerAgent::ServeOutcome WorkerAgent::serve(int read_fd, int write_fd) {
  draining_ = false;
  transport::Channel channel(read_fd, write_fd);
  double last_beat_at = now();

  auto hung = [this] {
    return config_.faults.hang_after_starts != 0 &&
           total_starts_ >= config_.faults.hang_after_starts;
  };
  auto crash_due = [this] {
    return config_.faults.crash_after_starts != 0 &&
           total_starts_ >= config_.faults.crash_after_starts;
  };

  if (!hung()) send_hello(channel);

  std::vector<transport::Frame> frames;
  while (true) {
    pump_inner();
    if (crash_due()) {
      crash_now();
      return ServeOutcome::kCrashed;
    }
    if (!hung()) {
      send_unacked(channel, /*force=*/false);
      if (now() - last_beat_at >= config_.heartbeat_interval) {
        transport::HeartbeatFrame beat;
        beat.beat = ++beat_;
        beat.worker_now = now();
        beat.running = running_.size();
        channel.send(transport::encode_heartbeat(beat));
        last_beat_at = now();
      }
      if (draining_ && running_.empty()) {
        // Final replay so nothing unacked is stranded, then farewell.
        send_unacked(channel, /*force=*/true);
        channel.send(transport::encode_bye());
        channel.drain(std::chrono::steady_clock::now() + transport::kFarewellFlush);
        return ServeOutcome::kDrained;
      }
    }
    frames.clear();
    int timeout_ms = (!running_.empty() || !journal_.empty()) ? 2 : 25;
    transport::Channel::Status status = channel.wait(timeout_ms, frames);
    if (hung()) frames.clear();  // wedged agent: bytes vanish into the void
    try {
      for (const transport::Frame& frame : frames) {
        switch (frame.type) {
          case transport::FrameType::kHelloAck: {
            transport::HelloAckFrame ack = transport::decode_hello_ack(frame);
            if (ack.version != config_.version) {
              return ServeOutcome::kProtocolError;
            }
            break;
          }
          case transport::FrameType::kSubmit:
            handle_submit(frame);
            break;
          case transport::FrameType::kKill:
            handle_kill(frame);
            break;
          case transport::FrameType::kAck:
            handle_ack(frame);
            break;
          case transport::FrameType::kDrain:
            draining_ = true;
            break;
          default:
            // Worker-bound traffic only; anything else means the stream is
            // corrupt or the peer is confused.
            throw transport::ProtocolError(
                std::string("unexpected frame for worker: ") +
                transport::to_string(frame.type));
        }
      }
    } catch (const transport::ProtocolError&) {
      return ServeOutcome::kProtocolError;
    }
    if (status != transport::Channel::Status::kOpen) {
      return status == transport::Channel::Status::kProtocolError
                 ? ServeOutcome::kProtocolError
                 : ServeOutcome::kConnectionLost;
    }
  }
}

int worker_agent_main(const WorkerConfig& config) {
  // The pilot may vanish mid-write (ssh death); EPIPE must surface as a
  // write error, not kill the agent before it can exit cleanly.
  ::signal(SIGPIPE, SIG_IGN);
  WorkerAgent agent(config);
  WorkerAgent::ServeOutcome outcome =
      agent.serve(STDIN_FILENO, STDOUT_FILENO);
  switch (outcome) {
    case WorkerAgent::ServeOutcome::kDrained: return 0;
    case WorkerAgent::ServeOutcome::kConnectionLost: return 0;  // pilot died
    default: return 1;
  }
}

}  // namespace parcl::exec
