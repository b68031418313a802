#include "exec/transport.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/net.hpp"
#include "util/rng.hpp"

namespace parcl::exec::transport {

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kStdout: return "STDOUT";
    case FrameType::kStderr: return "STDERR";
    case FrameType::kResult: return "RESULT";
    case FrameType::kAck: return "ACK";
    case FrameType::kHeartbeat: return "HEARTBEAT";
    case FrameType::kKill: return "KILL";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kBye: return "BYE";
    case FrameType::kClientHello: return "CLIENT_HELLO";
    case FrameType::kReject: return "REJECT";
  }
  return "?";
}

const char* to_string(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::kQueueFull: return "QUEUE_FULL";
    case RejectCode::kServerFull: return "SERVER_FULL";
    case RejectCode::kPressure: return "PRESSURE";
    case RejectCode::kDraining: return "DRAINING";
    case RejectCode::kBadRequest: return "BAD_REQUEST";
    case RejectCode::kEvicted: return "EVICTED";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t byte) noexcept {
  return byte >= static_cast<std::uint8_t>(FrameType::kHello) &&
         byte <= static_cast<std::uint8_t>(FrameType::kReject);
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::u8(std::uint8_t v) { out_ += static_cast<char>(v); }

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_ += static_cast<char>((v >> shift) & 0xff);
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_ += static_cast<char>((v >> shift) & 0xff);
  }
}

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& v) {
  util::require(v.size() <= kMaxFramePayload, "string field over frame limit");
  u32(static_cast<std::uint32_t>(v.size()));
  out_ += v;
}

void WireReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw ProtocolError("payload truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(size_ - pos_));
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
  }
  return v;
}

double WireReader::f64() {
  std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  std::uint32_t len = u32();
  // A length that exceeds what is physically left is corrupt; checking
  // before allocating keeps a hostile prefix from requesting gigabytes.
  need(len);
  std::string v(data_ + pos_, len);
  pos_ += len;
  return v;
}

void WireReader::expect_end() const {
  if (pos_ != size_) {
    throw ProtocolError("trailing garbage: " + std::to_string(size_ - pos_) +
                        " unparsed payload bytes");
  }
}

// ---------------------------------------------------------------------------
// Typed payload encode/decode
// ---------------------------------------------------------------------------

namespace {

/// Wraps a payload into a full frame: u32 length + u8 type + payload.
std::string frame_bytes(FrameType type, const std::string& payload) {
  util::require(payload.size() <= kMaxFramePayload, "frame payload over limit");
  WireWriter prefix;
  prefix.u32(static_cast<std::uint32_t>(payload.size()));
  prefix.u8(static_cast<std::uint8_t>(type));
  return prefix.take() + payload;
}

void put_result(WireWriter& w, const ResultFrame& r) {
  w.u64(r.seq);
  w.u32(static_cast<std::uint32_t>(r.exit_code));
  w.u32(static_cast<std::uint32_t>(r.term_signal));
  w.f64(r.start_time);
  w.f64(r.end_time);
  w.u64(r.stdout_chunks);
  w.u64(r.stderr_chunks);
}

ResultFrame get_result(WireReader& r) {
  ResultFrame out;
  out.seq = r.u64();
  out.exit_code = static_cast<std::int32_t>(r.u32());
  out.term_signal = static_cast<std::int32_t>(r.u32());
  out.start_time = r.f64();
  out.end_time = r.f64();
  out.stdout_chunks = r.u64();
  out.stderr_chunks = r.u64();
  return out;
}

/// Caps a declared element count by what the payload could physically hold
/// (each element needs at least `min_bytes`), so a corrupt count fails as a
/// truncation instead of a giant reserve().
std::uint64_t checked_count(std::uint64_t declared, std::size_t remaining,
                            std::size_t min_bytes) {
  if (min_bytes != 0 && declared > remaining / min_bytes) {
    throw ProtocolError("element count " + std::to_string(declared) +
                        " impossible for " + std::to_string(remaining) +
                        " payload bytes");
  }
  return declared;
}

void check_type(const Frame& frame, FrameType expected) {
  if (frame.type != expected) {
    throw ProtocolError(std::string("expected ") + to_string(expected) +
                        " frame, got " + to_string(frame.type));
  }
}

}  // namespace

std::string encode_hello(const HelloFrame& f) {
  WireWriter w;
  w.u32(f.version);
  w.f64(f.worker_now);
  w.u32(static_cast<std::uint32_t>(f.running.size()));
  for (std::uint64_t seq : f.running) w.u64(seq);
  w.u32(static_cast<std::uint32_t>(f.completed_unacked.size()));
  for (const ResultFrame& r : f.completed_unacked) put_result(w, r);
  return frame_bytes(FrameType::kHello, w.take());
}

HelloFrame decode_hello(const Frame& frame) {
  check_type(frame, FrameType::kHello);
  WireReader r(frame.payload);
  HelloFrame f;
  f.version = r.u32();
  f.worker_now = r.f64();
  std::uint64_t running = checked_count(r.u32(), r.remaining(), 8);
  f.running.reserve(running);
  for (std::uint64_t i = 0; i < running; ++i) f.running.push_back(r.u64());
  std::uint64_t completed = checked_count(r.u32(), r.remaining(), 40);
  f.completed_unacked.reserve(completed);
  for (std::uint64_t i = 0; i < completed; ++i) {
    f.completed_unacked.push_back(get_result(r));
  }
  r.expect_end();
  return f;
}

std::string encode_hello_ack(const HelloAckFrame& f) {
  WireWriter w;
  w.u32(f.version);
  return frame_bytes(FrameType::kHelloAck, w.take());
}

HelloAckFrame decode_hello_ack(const Frame& frame) {
  check_type(frame, FrameType::kHelloAck);
  WireReader r(frame.payload);
  HelloAckFrame f;
  f.version = r.u32();
  r.expect_end();
  return f;
}

std::string encode_submit(const SubmitFrame& f) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(f.jobs.size()));
  for (const JobSpec& job : f.jobs) {
    w.u64(job.seq);
    w.str(job.command);
    w.u64(job.slot);
    w.u8(static_cast<std::uint8_t>((job.use_shell ? 1 : 0) |
                                   (job.capture_output ? 2 : 0) |
                                   (job.has_stdin ? 4 : 0)));
    w.str(job.stdin_data);
    w.u32(static_cast<std::uint32_t>(job.env.size()));
    for (const auto& [key, value] : job.env) {
      w.str(key);
      w.str(value);
    }
  }
  return frame_bytes(FrameType::kSubmit, w.take());
}

SubmitFrame decode_submit(const Frame& frame) {
  check_type(frame, FrameType::kSubmit);
  WireReader r(frame.payload);
  SubmitFrame f;
  std::uint64_t count = checked_count(r.u32(), r.remaining(), 26);
  f.jobs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    JobSpec job;
    job.seq = r.u64();
    job.command = r.str();
    job.slot = r.u64();
    std::uint8_t flags = r.u8();
    if ((flags & ~std::uint8_t{7}) != 0) {
      throw ProtocolError("unknown SUBMIT flag bits");
    }
    job.use_shell = (flags & 1) != 0;
    job.capture_output = (flags & 2) != 0;
    job.has_stdin = (flags & 4) != 0;
    job.stdin_data = r.str();
    std::uint64_t env_count = checked_count(r.u32(), r.remaining(), 8);
    for (std::uint64_t e = 0; e < env_count; ++e) {
      std::string key = r.str();
      std::string value = r.str();
      job.env.emplace_back(std::move(key), std::move(value));
    }
    f.jobs.push_back(std::move(job));
  }
  r.expect_end();
  return f;
}

std::size_t encoded_size(const JobSpec& job) noexcept {
  // Mirrors encode_submit: seq, command, slot, flags, stdin, env count,
  // then each env pair; every string carries a u32 length.
  std::size_t size = 8 + (4 + job.command.size()) + 8 + 1 +
                     (4 + job.stdin_data.size()) + 4;
  for (const auto& [key, value] : job.env) {
    size += (4 + key.size()) + (4 + value.size());
  }
  return size;
}

std::string encode_chunk(FrameType type, const ChunkFrame& f) {
  util::require(type == FrameType::kStdout || type == FrameType::kStderr,
                "chunk frames are STDOUT or STDERR");
  WireWriter w;
  w.u64(f.seq);
  w.u64(f.index);
  w.str(f.data);
  return frame_bytes(type, w.take());
}

ChunkFrame decode_chunk(const Frame& frame) {
  if (frame.type != FrameType::kStdout && frame.type != FrameType::kStderr) {
    throw ProtocolError(std::string("expected STDOUT/STDERR frame, got ") +
                        to_string(frame.type));
  }
  WireReader r(frame.payload);
  ChunkFrame f;
  f.seq = r.u64();
  f.index = r.u64();
  f.data = r.str();
  r.expect_end();
  return f;
}

std::string encode_job_output(ResultFrame result, const std::string& stdout_data,
                              const std::string& stderr_data) {
  std::string out;
  // The bytes encode_chunk would give, without copying each slice twice.
  auto chunks = [&](FrameType type, const std::string& data) {
    std::uint64_t index = 0;
    for (std::size_t off = 0; off < data.size(); off += kChunkBytes, ++index) {
      std::size_t size = std::min(kChunkBytes, data.size() - off);
      WireWriter head;
      head.u32(static_cast<std::uint32_t>(20 + size));
      head.u8(static_cast<std::uint8_t>(type));
      head.u64(result.seq);
      head.u64(index);
      head.u32(static_cast<std::uint32_t>(size));
      out += head.bytes();
      out.append(data, off, size);
    }
    return index;
  };
  result.stdout_chunks = chunks(FrameType::kStdout, stdout_data);
  result.stderr_chunks = chunks(FrameType::kStderr, stderr_data);
  out += encode_result(result);
  return out;
}

std::string encode_result(const ResultFrame& f) {
  WireWriter w;
  put_result(w, f);
  return frame_bytes(FrameType::kResult, w.take());
}

ResultFrame decode_result(const Frame& frame) {
  check_type(frame, FrameType::kResult);
  WireReader r(frame.payload);
  ResultFrame f = get_result(r);
  r.expect_end();
  return f;
}

std::string encode_ack(const AckFrame& f) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(f.seqs.size()));
  for (std::uint64_t seq : f.seqs) w.u64(seq);
  return frame_bytes(FrameType::kAck, w.take());
}

AckFrame decode_ack(const Frame& frame) {
  check_type(frame, FrameType::kAck);
  WireReader r(frame.payload);
  AckFrame f;
  std::uint64_t count = checked_count(r.u32(), r.remaining(), 8);
  f.seqs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) f.seqs.push_back(r.u64());
  r.expect_end();
  return f;
}

std::string encode_heartbeat(const HeartbeatFrame& f) {
  WireWriter w;
  w.u64(f.beat);
  w.f64(f.worker_now);
  w.u64(f.running);
  return frame_bytes(FrameType::kHeartbeat, w.take());
}

HeartbeatFrame decode_heartbeat(const Frame& frame) {
  check_type(frame, FrameType::kHeartbeat);
  WireReader r(frame.payload);
  HeartbeatFrame f;
  f.beat = r.u64();
  f.worker_now = r.f64();
  f.running = r.u64();
  r.expect_end();
  return f;
}

std::string encode_kill(const KillFrame& f) {
  WireWriter w;
  w.u64(f.seq);
  w.u32(static_cast<std::uint32_t>(f.signal));
  w.u8(f.force ? 1 : 0);
  return frame_bytes(FrameType::kKill, w.take());
}

KillFrame decode_kill(const Frame& frame) {
  check_type(frame, FrameType::kKill);
  WireReader r(frame.payload);
  KillFrame f;
  f.seq = r.u64();
  f.signal = static_cast<std::int32_t>(r.u32());
  std::uint8_t force = r.u8();
  if (force > 1) throw ProtocolError("KILL force flag out of range");
  f.force = force != 0;
  r.expect_end();
  return f;
}

std::string encode_drain() { return frame_bytes(FrameType::kDrain, ""); }

std::string encode_bye() { return frame_bytes(FrameType::kBye, ""); }

std::string encode_client_hello(const ClientHelloFrame& f) {
  WireWriter w;
  w.u32(f.version);
  w.str(f.tenant);
  w.f64(f.weight);
  w.str(f.token);
  return frame_bytes(FrameType::kClientHello, w.take());
}

ClientHelloFrame decode_client_hello(const Frame& frame) {
  check_type(frame, FrameType::kClientHello);
  WireReader r(frame.payload);
  ClientHelloFrame f;
  f.version = r.u32();
  f.tenant = r.str();
  f.weight = r.f64();
  // v1 hellos carried no token. Tolerate its absence so an old client gets
  // the friendly version-mismatch REJECT instead of a protocol drop.
  f.token = r.remaining() > 0 ? r.str() : "";
  r.expect_end();
  return f;
}

std::string encode_reject(const RejectFrame& f) {
  WireWriter w;
  w.u64(f.seq);
  w.u8(static_cast<std::uint8_t>(f.code));
  w.f64(f.retry_after);
  w.str(f.message);
  return frame_bytes(FrameType::kReject, w.take());
}

RejectFrame decode_reject(const Frame& frame) {
  check_type(frame, FrameType::kReject);
  WireReader r(frame.payload);
  RejectFrame f;
  f.seq = r.u64();
  std::uint8_t code = r.u8();
  if (code < static_cast<std::uint8_t>(RejectCode::kQueueFull) ||
      code > static_cast<std::uint8_t>(RejectCode::kEvicted)) {
    throw ProtocolError("REJECT code " + std::to_string(int(code)) +
                        " out of range");
  }
  f.code = static_cast<RejectCode>(code);
  f.retry_after = r.f64();
  f.message = r.str();
  r.expect_end();
  return f;
}

// ---------------------------------------------------------------------------
// FrameDecoder
// ---------------------------------------------------------------------------

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (poisoned_) throw ProtocolError("decoder poisoned by an earlier error");
  buffer_.append(data, size);
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow the buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw ProtocolError("decoder poisoned by an earlier error");
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 5) return std::nullopt;
  WireReader prefix(buffer_.data() + consumed_, 5);
  std::uint32_t len = prefix.u32();
  std::uint8_t type = prefix.u8();
  if (len > kMaxFramePayload) {
    poisoned_ = true;
    throw ProtocolError("length prefix " + std::to_string(len) +
                        " exceeds the frame limit");
  }
  if (!known_type(type)) {
    poisoned_ = true;
    throw ProtocolError("unknown frame type " + std::to_string(int(type)));
  }
  if (available < 5 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buffer_.data() + consumed_ + 5, len);
  consumed_ += 5 + len;
  compact();
  return frame;
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

Channel::Channel(int read_fd, int write_fd)
    : read_fd_(read_fd), write_fd_(write_fd), status_(Status::kOpen) {
  util::set_nonblocking(read_fd_);
  if (write_fd_ != read_fd_) util::set_nonblocking(write_fd_);
}

void Channel::fail(Status status) noexcept {
  if (status_ == Status::kOpen) status_ = status;
}

std::size_t Channel::write_out(const char* data, std::size_t size) {
  std::size_t done = 0;
  while (ok() && done < size) {
    ssize_t n = plain_write_
                    ? -1
                    : ::send(write_fd_, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0 && (plain_write_ || errno == ENOTSOCK)) {
      // A pipe (the worker's ssh stdout); its owner ignores SIGPIPE.
      plain_write_ = true;
      n = ::write(write_fd_, data + done, size - done);
    }
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      fail(Status::kIoError);
    }
  }
  return done;
}

bool Channel::send(const std::string& frame) {
  if (!ok()) return false;
  if (want_write()) {
    outbuf_ += frame;
    return flush();
  }
  // Nothing queued ahead: write from the caller's bytes, copy only the rest.
  std::size_t done = write_out(frame.data(), frame.size());
  if (ok() && done < frame.size()) outbuf_.append(frame, done, std::string::npos);
  return ok();
}

bool Channel::flush() {
  out_pos_ += write_out(outbuf_.data() + out_pos_, outbuf_.size() - out_pos_);
  if (!want_write()) {
    outbuf_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > 64 * 1024 && out_pos_ * 2 > outbuf_.size()) {
    // Reclaim the written prefix once it dominates, without a memmove on
    // every partial write of a large frame.
    outbuf_.erase(0, out_pos_);
    out_pos_ = 0;
  }
  return ok();
}

Channel::Status Channel::read(std::vector<Frame>& frames) {
  char buffer[64 * 1024];
  while (ok()) {
    ssize_t n = ::read(read_fd_, buffer, sizeof(buffer));
    if (n > 0) {
      try {
        decoder_.feed(buffer, static_cast<std::size_t>(n));
        while (std::optional<Frame> frame = decoder_.next()) {
          frames.push_back(std::move(*frame));
        }
      } catch (const ProtocolError&) {
        // No resynchronization in a length-prefixed stream.
        fail(Status::kProtocolError);
      }
    } else if (n == 0) {
      fail(Status::kEof);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      fail(Status::kIoError);
    }
  }
  return status_;
}

Channel::Status Channel::wait(int timeout_ms, std::vector<Frame>& frames) {
  if (!ok()) return status_;
  short out = want_write() ? POLLOUT : 0;
  struct pollfd fds[2] = {{read_fd_, POLLIN, 0}, {write_fd_, out, 0}};
  if (::poll(fds, 2, timeout_ms) < 0) {
    if (errno != EINTR) fail(Status::kIoError);
    return status_;
  }
  if (fds[1].revents != 0 && want_write()) flush();
  if (fds[0].revents != 0) read(frames);
  return status_;
}

bool Channel::drain(std::chrono::steady_clock::time_point deadline) {
  while (flush() && want_write()) {
    auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    struct pollfd pfd{write_fd_, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready == 0) break;
    if (ready < 0 && errno != EINTR) {
      fail(Status::kIoError);
      break;
    }
  }
  return !want_write();
}

// ---------------------------------------------------------------------------
// FrameFaultFilter
// ---------------------------------------------------------------------------

bool TransportFaultPlan::inert() const noexcept {
  return drop_prob <= 0.0 && duplicate_prob <= 0.0 && reorder_prob <= 0.0 &&
         delay_prob <= 0.0 && kill_connection_after == 0;
}

FrameFaultFilter::FrameFaultFilter(TransportFaultPlan plan) : plan_(plan) {
  kill_armed_ = plan_.kill_connection_after != 0;
}

bool FrameFaultFilter::protected_type(FrameType type) const noexcept {
  // Losing the handshake or the farewell has no retransmit path; those
  // failure modes are modelled as connection kills, not frame faults.
  return type == FrameType::kHello || type == FrameType::kHelloAck ||
         type == FrameType::kBye;
}

void FrameFaultFilter::filter(Frame frame, double now, std::vector<Frame>& out) {
  if (kill_armed_ && !kill_fired_ &&
      counters_.frames_seen >= plan_.kill_connection_after) {
    // The link is already severed at the scheduled cut; frames read past it
    // were written to a connection that no longer exists and never arrive.
    return;
  }
  ++counters_.frames_seen;
  std::uint64_t ordinal = ordinal_++;
  if (protected_type(frame.type) || plan_.inert()) {
    release_due(now, out);
    out.push_back(std::move(frame));
    return;
  }
  // One decision stream per frame ordinal, classes drawn in a fixed order
  // (FaultPlan's convention) so schedules replay bit-for-bit.
  util::Rng rng(plan_.seed * 0x9e3779b97f4a7c15ULL + ordinal + 1);
  bool drop = rng.bernoulli(plan_.drop_prob);
  bool duplicate = rng.bernoulli(plan_.duplicate_prob);
  bool reorder = rng.bernoulli(plan_.reorder_prob);
  bool delay = rng.bernoulli(plan_.delay_prob);
  double delay_s = rng.uniform(plan_.delay_min_seconds,
                               std::max(plan_.delay_min_seconds, plan_.delay_max_seconds));
  release_due(now, out);
  if (drop) {
    ++counters_.dropped;
    return;
  }
  if (delay) {
    ++counters_.delayed;
    held_.push_back({std::move(frame), now + delay_s});
    return;
  }
  if (reorder) {
    // Held with no release time: it rides out until the next frame passes,
    // which inverts the pair — the minimal reorder.
    ++counters_.reordered;
    held_.push_back({std::move(frame), now});
    return;
  }
  out.push_back(frame);
  if (duplicate) {
    ++counters_.duplicated;
    out.push_back(std::move(frame));
  }
}

void FrameFaultFilter::release_due(double now, std::vector<Frame>& out) {
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->release_at <= now) {
      out.push_back(std::move(it->frame));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
}

bool FrameFaultFilter::kill_due() {
  if (!kill_armed_ || kill_fired_) return false;
  if (counters_.frames_seen >= plan_.kill_connection_after) {
    kill_fired_ = true;
    ++counters_.connection_kills;
    return true;
  }
  return false;
}

void FrameFaultFilter::reset_connection() { held_.clear(); }

}  // namespace parcl::exec::transport
