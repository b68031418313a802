#include "core/client.hpp"

#include <unistd.h>

#include <chrono>
#include <iostream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/job_source.hpp"
#include "core/replacement.hpp"
#include "exec/transport.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace parcl::core {

namespace transport = exec::transport;
using transport::RejectCode;

namespace {

// Client-side exit codes beyond the failed-job count (see client.hpp).
constexpr int kExitConnectionLost = 120;
constexpr int kExitRefused = 121;
constexpr int kExitProtocol = 122;

/// Rejections survived per job before the client gives up on it and counts
/// it failed — a server stuck at capacity must not spin a client forever.
constexpr std::size_t kMaxRejectsPerJob = 64;

/// Jobs per SUBMIT frame (amortizes framing without bulking REJECT storms).
constexpr std::size_t kSubmitBatch = 16;

struct PendingJob {
  std::string command;
  std::string stdin_data;
  bool has_stdin = false;
  bool acked = false;
  std::size_t rejects = 0;
};

/// Output of one finished job, reassembled from chunk + RESULT frames.
struct Arrived {
  std::string stdout_data;
  std::string stderr_data;
  int exit_code = 0;
  int term_signal = 0;
  bool done = false;
};

class ServiceClient {
 public:
  ServiceClient(const RunPlan& plan, std::istream& in, std::ostream& out,
                std::ostream& err)
      : plan_(plan), in_(in), out_(out), err_(err) {}

  ~ServiceClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  int run() {
    const ServiceCli& service = plan_.service;
    if (!service.connect.empty()) {
      fd_ = util::tcp_connect(util::parse_ipv4_endpoint(service.connect));
    } else {
      fd_ = util::unix_connect(service.socket_path);
    }
    if (fd_ < 0) {
      err_ << "parcl: --client: cannot connect to "
           << (service.connect.empty() ? service.socket_path : service.connect)
           << " (is the server running?)\n";
      return kExitConnectionLost;
    }

    channel_ = transport::Channel(fd_);

    transport::ClientHelloFrame hello;
    hello.tenant = service.tenant;
    hello.weight = service.tenant_weight;
    hello.token = service.token;
    channel_.send(transport::encode_client_hello(hello));
    std::vector<transport::Frame> frames;
    while (frames.empty()) {
      if (!channel_.ok()) return kExitConnectionLost;
      channel_.wait(-1, frames);
    }
    const transport::Frame& reply = frames.front();
    if (reply.type == transport::FrameType::kReject) {
      transport::RejectFrame reject = transport::decode_reject(reply);
      err_ << "parcl: --client: server refused: " << reject.message << "\n";
      return reject.code == RejectCode::kBadRequest ? kExitProtocol : kExitRefused;
    }
    if (reply.type != transport::FrameType::kHelloAck) return kExitProtocol;
    transport::decode_hello_ack(reply);
    frames.erase(frames.begin());  // anything behind the ACK is handled below

    CommandTemplate tmpl = CommandTemplate::parse(plan_.command_template);
    tmpl.ensure_input_placeholder();
    std::unique_ptr<JobSource> source = make_job_source(plan_, in_);
    const std::size_t window =
        std::max<std::size_t>(32, plan_.options.effective_jobs() * 2);

    while (true) {
      // Fill the submission window from the input stream (stopping for
      // good once the server said no-more: drain or eviction).
      std::vector<transport::JobSpec> batch;
      while (!fatal_ && !inputs_done_ && pending_.size() < window) {
        std::optional<JobInput> input = source->next();
        if (!input) {
          inputs_done_ = true;
          break;
        }
        std::uint64_t seq = next_seq_++;
        CommandTemplate::Context context;
        context.seq = seq;
        context.slot = 1;  // slots are the server's; {%} is not meaningful here
        PendingJob job;
        job.command = tmpl.expand(input->args, context, plan_.options.quote_args);
        job.stdin_data = std::move(input->stdin_data);
        job.has_stdin = input->has_stdin;
        batch.push_back(make_spec(seq, job));
        pending_.emplace(seq, std::move(job));
        ++total_jobs_;
        if (batch.size() >= kSubmitBatch) {
          if (!submit(batch)) return finish(kExitConnectionLost);
          batch.clear();
        }
      }
      if (!batch.empty() && !submit(batch)) return finish(kExitConnectionLost);

      // Re-submit backpressure-rejected jobs once their hint expires.
      if (!retry_.empty() && !fatal_) {
        std::this_thread::sleep_for(std::chrono::duration<double>(retry_wait_));
        std::vector<transport::JobSpec> again;
        for (std::uint64_t seq : retry_) again.push_back(make_spec(seq, pending_.at(seq)));
        retry_.clear();
        retry_wait_ = 0.0;
        if (!submit(again)) return finish(kExitConnectionLost);
      }

      if (pending_.empty() && (inputs_done_ || fatal_)) break;

      transport::Channel::Status status = transport::Channel::Status::kOpen;
      if (frames.empty()) status = channel_.wait(-1, frames);
      for (const transport::Frame& frame : frames) {
        if (!handle(frame)) return finish(lost_code_);
      }
      frames.clear();
      if (status != transport::Channel::Status::kOpen) {
        // EOF with work outstanding is a lost server; EOF after the books
        // are balanced is just the close we were about to do ourselves.
        return pending_.empty() && inputs_done_ ? finish(0)
                                                : finish(kExitConnectionLost);
      }
    }

    channel_.send(transport::encode_bye());
    channel_.drain(std::chrono::steady_clock::now() + transport::kFarewellFlush);
    return finish(0);
  }

 private:
  transport::JobSpec make_spec(std::uint64_t seq, const PendingJob& job) const {
    transport::JobSpec spec;
    spec.seq = seq;
    spec.command = job.command;
    spec.use_shell = true;
    spec.capture_output = true;
    spec.has_stdin = job.has_stdin;
    spec.stdin_data = job.stdin_data;
    return spec;
  }

  bool submit(const std::vector<transport::JobSpec>& jobs) {
    transport::SubmitFrame frame;
    frame.jobs = jobs;
    return channel_.send(transport::encode_submit(frame));
  }

  /// Processes one inbound frame; false = stop the run with lost_code_.
  bool handle(const transport::Frame& frame) {
    switch (frame.type) {
      case transport::FrameType::kAck: {
        for (std::uint64_t seq : transport::decode_ack(frame).seqs) {
          auto it = pending_.find(seq);
          if (it != pending_.end()) it->second.acked = true;
        }
        return true;
      }
      case transport::FrameType::kReject:
        return handle_reject(transport::decode_reject(frame));
      case transport::FrameType::kStdout:
      case transport::FrameType::kStderr: {
        transport::ChunkFrame chunk = transport::decode_chunk(frame);
        Arrived& arrived = arrived_[chunk.seq];
        (frame.type == transport::FrameType::kStdout ? arrived.stdout_data
                                                     : arrived.stderr_data) +=
            chunk.data;
        return true;
      }
      case transport::FrameType::kResult: {
        transport::ResultFrame result = transport::decode_result(frame);
        Arrived& arrived = arrived_[result.seq];
        arrived.exit_code = result.exit_code;
        arrived.term_signal = result.term_signal;
        arrived.done = true;
        if (result.exit_code != 0 || result.term_signal != 0) ++failures_;
        pending_.erase(result.seq);
        emit_ready();
        return true;
      }
      case transport::FrameType::kDrain:
        // Server entered its drain: accepted-but-unstarted jobs are
        // checkpointed server-side and will run on its next start; nothing
        // more arrives for them this session.
        fatal_ = true;
        fatal_code_ = kExitRefused;
        fatal_message_ = "server draining; accepted jobs are checkpointed";
        for (auto it = pending_.begin(); it != pending_.end();) {
          if (it->second.acked) {
            ++checkpointed_;
            mark_gap(it->first);
            it = pending_.erase(it);
          } else {
            ++it;
          }
        }
        emit_ready();
        return true;
      case transport::FrameType::kBye:
        lost_code_ = pending_.empty() ? 0 : kExitConnectionLost;
        return false;
      case transport::FrameType::kHeartbeat:
        return true;
      default:
        lost_code_ = kExitProtocol;
        return false;
    }
  }

  bool handle_reject(const transport::RejectFrame& reject) {
    auto it = pending_.find(reject.seq);
    if (reject.code == RejectCode::kDraining || reject.code == RejectCode::kEvicted) {
      fatal_ = true;
      fatal_code_ = kExitRefused;
      fatal_message_ = reject.message;
      if (it != pending_.end()) {
        mark_gap(reject.seq);
        pending_.erase(it);
        emit_ready();
      }
      return true;
    }
    if (it == pending_.end()) return true;
    if (reject.retry_after > 0.0 && ++it->second.rejects < kMaxRejectsPerJob) {
      retry_.push_back(reject.seq);
      retry_wait_ = std::max(retry_wait_, reject.retry_after);
      return true;
    }
    // Non-retryable (bad request) or retries exhausted: the job failed.
    ++failures_;
    err_ << "parcl: --client: job " << reject.seq << " rejected ("
         << transport::to_string(reject.code) << "): " << reject.message << "\n";
    mark_gap(reject.seq);
    pending_.erase(it);
    emit_ready();
    return true;
  }

  /// A seq that will never produce output this session (permanently
  /// rejected, or checkpointed by a drain) must still count as emitted, or
  /// keep-order (-k) waits on it forever and every later job's completed
  /// output dies buffered in arrived_.
  void mark_gap(std::uint64_t seq) { arrived_[seq].done = true; }

  /// Emits finished output. -k holds completions until every earlier seq
  /// has been emitted (the serial-order contract); otherwise completion
  /// order, whole jobs at a time (group mode).
  void emit_ready() {
    bool keep_order = plan_.options.output_mode == OutputMode::kKeepOrder;
    if (!keep_order) {
      for (auto it = arrived_.begin(); it != arrived_.end();) {
        if (!it->second.done) {
          ++it;
          continue;
        }
        out_ << it->second.stdout_data;
        err_ << it->second.stderr_data;
        it = arrived_.erase(it);
      }
      out_.flush();
      return;
    }
    while (true) {
      auto it = arrived_.find(next_emit_);
      if (it == arrived_.end() || !it->second.done) break;
      out_ << it->second.stdout_data;
      err_ << it->second.stderr_data;
      arrived_.erase(it);
      ++next_emit_;
    }
    out_.flush();
  }

  int finish(int transport_code) {
    out_.flush();
    err_.flush();
    if (fatal_) {
      err_ << "parcl: --client: " << fatal_message_;
      if (checkpointed_ > 0) {
        err_ << " (" << checkpointed_ << " accepted jobs will run when the"
             << " server restarts)";
      }
      err_ << "\n";
      return fatal_code_;
    }
    if (transport_code != 0) {
      err_ << "parcl: --client: connection to server lost\n";
      return transport_code;
    }
    return static_cast<int>(std::min<std::size_t>(failures_, 101));
  }

  const RunPlan& plan_;
  std::istream& in_;
  std::ostream& out_;
  std::ostream& err_;
  int fd_ = -1;
  transport::Channel channel_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_emit_ = 1;
  std::size_t total_jobs_ = 0;
  std::size_t failures_ = 0;
  std::size_t checkpointed_ = 0;
  bool inputs_done_ = false;
  bool fatal_ = false;
  int fatal_code_ = kExitRefused;
  std::string fatal_message_;
  int lost_code_ = kExitConnectionLost;
  std::map<std::uint64_t, PendingJob> pending_;
  std::map<std::uint64_t, Arrived> arrived_;
  std::vector<std::uint64_t> retry_;
  double retry_wait_ = 0.0;
};

}  // namespace

int run_client(const RunPlan& plan, std::istream& in, std::ostream& out,
               std::ostream& err) {
  ServiceClient client(plan, in, out, err);
  return client.run();
}

}  // namespace parcl::core
