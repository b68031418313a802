// Conformance + fuzz suite for the pilot-worker frame codec
// (exec/transport): round-trips for every frame type, rejection of
// truncated frames, oversized length prefixes, unknown types, trailing
// garbage, version-mismatch handshakes, and a seeded fuzz loop that must
// never crash or over-read (run under ASan in the sanitize CI tier). The
// Channel suite drives the nonblocking framed endpoint over real sockets
// and pipes.
#include "exec/transport.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace parcl::exec::transport {
namespace {

// Decodes a full byte stream through the incremental decoder, returning
// every frame. Feeds in `step`-byte slices to exercise partial reassembly.
std::vector<Frame> decode_stream(const std::string& bytes, std::size_t step) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::size_t off = 0; off < bytes.size(); off += step) {
    decoder.feed(bytes.data() + off, std::min(step, bytes.size() - off));
    while (std::optional<Frame> frame = decoder.next()) {
      frames.push_back(std::move(*frame));
    }
  }
  return frames;
}

HelloFrame sample_hello() {
  HelloFrame hello;
  hello.version = kProtocolVersion;
  hello.worker_now = 123.456;
  hello.running = {7, 9, 42};
  ResultFrame done;
  done.seq = 5;
  done.exit_code = 3;
  done.term_signal = 0;
  done.start_time = 1.5;
  done.end_time = 2.5;
  done.stdout_chunks = 2;
  done.stderr_chunks = 0;
  hello.completed_unacked.push_back(done);
  return hello;
}

SubmitFrame sample_submit() {
  SubmitFrame submit;
  JobSpec job;
  job.seq = 11;
  job.command = "echo 'quoted \"stuff\"' | wc -c";
  job.slot = 4;
  job.use_shell = true;
  job.capture_output = true;
  job.has_stdin = true;
  job.stdin_data = std::string("line1\nline2\n\0binary", 19);
  job.env.emplace_back("PARCL_SEQ", "11");
  job.env.emplace_back("EMPTY", "");
  submit.jobs.push_back(job);
  JobSpec bare;
  bare.seq = 12;
  bare.command = "true";
  bare.use_shell = false;
  submit.jobs.push_back(bare);
  return submit;
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(TransportCodec, HelloRoundTripsWithJournal) {
  HelloFrame hello = sample_hello();
  std::vector<Frame> frames = decode_stream(encode_hello(hello), 1);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kHello);
  HelloFrame back = decode_hello(frames[0]);
  EXPECT_EQ(back.version, hello.version);
  EXPECT_DOUBLE_EQ(back.worker_now, hello.worker_now);
  EXPECT_EQ(back.running, hello.running);
  ASSERT_EQ(back.completed_unacked.size(), 1u);
  EXPECT_EQ(back.completed_unacked[0].seq, 5u);
  EXPECT_EQ(back.completed_unacked[0].exit_code, 3);
  EXPECT_EQ(back.completed_unacked[0].stdout_chunks, 2u);
}

TEST(TransportCodec, SubmitRoundTripsBinaryStdinAndEnv) {
  SubmitFrame submit = sample_submit();
  std::vector<Frame> frames = decode_stream(encode_submit(submit), 3);
  ASSERT_EQ(frames.size(), 1u);
  SubmitFrame back = decode_submit(frames[0]);
  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_EQ(back.jobs[0].seq, 11u);
  EXPECT_EQ(back.jobs[0].command, submit.jobs[0].command);
  EXPECT_EQ(back.jobs[0].stdin_data, submit.jobs[0].stdin_data);
  EXPECT_TRUE(back.jobs[0].has_stdin);
  EXPECT_EQ(back.jobs[0].env, submit.jobs[0].env);
  EXPECT_FALSE(back.jobs[1].use_shell);
  EXPECT_EQ(back.jobs[1].command, "true");
}

TEST(TransportCodec, ChunkResultAckHeartbeatKillRoundTrip) {
  ChunkFrame chunk;
  chunk.seq = 21;
  chunk.index = 3;
  chunk.data = std::string("\x00\xff\x7f partial", 12);
  ResultFrame result;
  result.seq = 21;
  result.exit_code = 0;
  result.term_signal = 9;
  result.start_time = 10.0;
  result.end_time = 11.25;
  result.stdout_chunks = 4;
  result.stderr_chunks = 1;
  AckFrame ack;
  ack.seqs = {21, 22, 23};
  HeartbeatFrame beat;
  beat.beat = 17;
  beat.worker_now = 99.5;
  beat.running = 6;
  KillFrame kill;
  kill.seq = 21;
  kill.signal = 15;
  kill.force = true;

  std::string stream;
  stream += encode_chunk(FrameType::kStdout, chunk);
  stream += encode_chunk(FrameType::kStderr, chunk);
  stream += encode_result(result);
  stream += encode_ack(ack);
  stream += encode_heartbeat(beat);
  stream += encode_kill(kill);
  stream += encode_drain();
  stream += encode_bye();

  std::vector<Frame> frames = decode_stream(stream, 7);
  ASSERT_EQ(frames.size(), 8u);
  EXPECT_EQ(frames[0].type, FrameType::kStdout);
  EXPECT_EQ(frames[1].type, FrameType::kStderr);
  ChunkFrame chunk_back = decode_chunk(frames[1]);
  EXPECT_EQ(chunk_back.seq, 21u);
  EXPECT_EQ(chunk_back.index, 3u);
  EXPECT_EQ(chunk_back.data, chunk.data);
  ResultFrame result_back = decode_result(frames[2]);
  EXPECT_EQ(result_back.term_signal, 9);
  EXPECT_EQ(result_back.stdout_chunks, 4u);
  AckFrame ack_back = decode_ack(frames[3]);
  EXPECT_EQ(ack_back.seqs, ack.seqs);
  HeartbeatFrame beat_back = decode_heartbeat(frames[4]);
  EXPECT_EQ(beat_back.beat, 17u);
  EXPECT_EQ(beat_back.running, 6u);
  KillFrame kill_back = decode_kill(frames[5]);
  EXPECT_EQ(kill_back.signal, 15);
  EXPECT_TRUE(kill_back.force);
  EXPECT_EQ(frames[6].type, FrameType::kDrain);
  EXPECT_EQ(frames[7].type, FrameType::kBye);
  EXPECT_TRUE(frames[6].payload.empty());
  EXPECT_TRUE(frames[7].payload.empty());
}

TEST(TransportCodec, ByteAtATimeEqualsOneShot) {
  std::string stream = encode_hello(sample_hello()) +
                       encode_submit(sample_submit()) + encode_bye();
  std::vector<Frame> slow = decode_stream(stream, 1);
  std::vector<Frame> fast = decode_stream(stream, stream.size());
  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].type, fast[i].type);
    EXPECT_EQ(slow[i].payload, fast[i].payload);
  }
}

// ---------------------------------------------------------------------------
// Conformance: malformed streams must fail loudly and stay failed.
// ---------------------------------------------------------------------------

TEST(TransportCodec, ClientHelloRoundTrips) {
  ClientHelloFrame hello;
  hello.version = kProtocolVersion;
  hello.tenant = "team-a_1.prod";
  hello.weight = 2.5;
  hello.token = "s3cret token, spaces ok";
  std::vector<Frame> frames = decode_stream(encode_client_hello(hello), 3);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kClientHello);
  ClientHelloFrame decoded = decode_client_hello(frames[0]);
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.tenant, "team-a_1.prod");
  EXPECT_DOUBLE_EQ(decoded.weight, 2.5);
  EXPECT_EQ(decoded.token, "s3cret token, spaces ok");
}

// A v1 hello (no token field) must still decode — the server answers it
// with a version-mismatch REJECT, which requires getting past the decoder.
TEST(TransportCodec, ClientHelloTokenlessPayloadDecodes) {
  ClientHelloFrame hello;
  hello.version = 1;
  hello.tenant = "old";
  hello.weight = 1.0;
  hello.token = "ignored";
  std::string bytes = encode_client_hello(hello);
  // Strip the trailing token (u32 length + bytes) and patch the frame's
  // length prefix to match the shortened payload.
  std::size_t token_bytes = 4 + hello.token.size();
  bytes.resize(bytes.size() - token_bytes);
  std::uint32_t payload_len =
      static_cast<std::uint32_t>(bytes.size() - 5);  // 4-byte len + type byte
  bytes[0] = static_cast<char>(payload_len & 0xff);  // little-endian prefix
  bytes[1] = static_cast<char>((payload_len >> 8) & 0xff);
  bytes[2] = static_cast<char>((payload_len >> 16) & 0xff);
  bytes[3] = static_cast<char>((payload_len >> 24) & 0xff);
  std::vector<Frame> frames = decode_stream(bytes, 1);
  ASSERT_EQ(frames.size(), 1u);
  ClientHelloFrame decoded = decode_client_hello(frames[0]);
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_EQ(decoded.tenant, "old");
  EXPECT_TRUE(decoded.token.empty());
}

TEST(TransportCodec, RejectRoundTripsEveryCode) {
  for (RejectCode code :
       {RejectCode::kQueueFull, RejectCode::kServerFull, RejectCode::kPressure,
        RejectCode::kDraining, RejectCode::kBadRequest, RejectCode::kEvicted}) {
    RejectFrame reject;
    reject.seq = 99;
    reject.code = code;
    reject.retry_after = 0.25;
    reject.message = "queue says no";
    std::vector<Frame> frames = decode_stream(encode_reject(reject), 1);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, FrameType::kReject);
    RejectFrame decoded = decode_reject(frames[0]);
    EXPECT_EQ(decoded.seq, 99u);
    EXPECT_EQ(decoded.code, code);
    EXPECT_DOUBLE_EQ(decoded.retry_after, 0.25);
    EXPECT_EQ(decoded.message, "queue says no");
    EXPECT_NE(std::string(to_string(code)), "?");
  }
}

TEST(TransportConformance, RejectWithUnknownCodeByteRejected) {
  RejectFrame reject;
  reject.code = RejectCode::kQueueFull;
  std::string encoded = encode_reject(reject);
  // The code byte sits after the 5-byte frame header and the u64 seq.
  encoded[5 + 8] = 0x7f;
  std::vector<Frame> frames = decode_stream(encoded, encoded.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_THROW(decode_reject(frames[0]), ProtocolError);
}

TEST(TransportConformance, TruncatedPayloadIsIncompleteNotGarbage) {
  std::string frame = encode_heartbeat(HeartbeatFrame{});
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());  // waiting, not erroring
  EXPECT_GT(decoder.pending_bytes(), 0u);
  decoder.feed(frame.data() + frame.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(TransportConformance, OversizedLengthPrefixRejectedBeforeBuffering) {
  std::string bytes;
  std::uint32_t huge = kMaxFramePayload + 1;
  bytes.append(reinterpret_cast<const char*>(&huge), 4);
  bytes.push_back(static_cast<char>(FrameType::kHeartbeat));
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_THROW(decoder.next(), ProtocolError);
  // Poisoned: no resynchronization in a length-prefixed stream. Both feed()
  // and next() refuse further use.
  EXPECT_THROW(
      {
        decoder.feed(encode_bye());
        (void)decoder.next();
      },
      ProtocolError);
}

TEST(TransportConformance, UnknownFrameTypeRejected) {
  std::string bytes;
  std::uint32_t len = 0;
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  bytes.push_back(static_cast<char>(0));  // type 0 is reserved/unknown
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_THROW(decoder.next(), ProtocolError);

  std::string high;
  high.append(reinterpret_cast<const char*>(&len), 4);
  high.push_back(static_cast<char>(0x7f));
  FrameDecoder decoder2;
  decoder2.feed(high);
  EXPECT_THROW(decoder2.next(), ProtocolError);
}

TEST(TransportConformance, PayloadTruncationDetectedByDecoders) {
  std::string full = encode_hello(sample_hello());
  // Rebuild a frame whose declared length is honest but whose payload was
  // cut mid-field: the typed decoder must throw, not over-read.
  std::string payload = full.substr(5);
  payload.resize(payload.size() / 2);
  Frame frame;
  frame.type = FrameType::kHello;
  frame.payload = payload;
  EXPECT_THROW(decode_hello(frame), ProtocolError);
}

TEST(TransportConformance, TrailingGarbageRejected) {
  Frame frame;
  frame.type = FrameType::kHeartbeat;
  frame.payload = encode_heartbeat(HeartbeatFrame{}).substr(5) + "x";
  EXPECT_THROW(decode_heartbeat(frame), ProtocolError);
}

TEST(TransportConformance, WrongTypeForDecoderRejected) {
  Frame frame;
  frame.type = FrameType::kAck;
  frame.payload = encode_heartbeat(HeartbeatFrame{}).substr(5);
  EXPECT_THROW(decode_hello(frame), ProtocolError);
}

TEST(TransportConformance, HostileElementCountRejectedWithoutAllocation) {
  // An ACK claiming 2^32-1 seqs in a 12-byte payload must be caught by the
  // count-vs-remaining guard, not by an allocation attempt.
  WireWriter w;
  w.u32(0xffffffffu);
  w.u64(1);
  Frame frame;
  frame.type = FrameType::kAck;
  frame.payload = w.take();
  EXPECT_THROW(decode_ack(frame), ProtocolError);
}

TEST(TransportConformance, VersionMismatchHelloIsDecodableButFlagged) {
  // The codec carries the foreign version through; rejection is the pilot's
  // policy decision (exercised end-to-end in exec_pilot_test).
  HelloFrame hello = sample_hello();
  hello.version = kProtocolVersion + 7;
  std::vector<Frame> frames = decode_stream(encode_hello(hello), 2);
  ASSERT_EQ(frames.size(), 1u);
  HelloFrame back = decode_hello(frames[0]);
  EXPECT_NE(back.version, kProtocolVersion);
}

// ---------------------------------------------------------------------------
// Seeded fuzz: the codec must never crash, over-read, or allocate absurdly,
// no matter what bytes arrive. Run under ASan in the sanitize tier.
// ---------------------------------------------------------------------------

std::string valid_stream(util::Rng& rng) {
  std::string stream;
  int frames = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < frames; ++i) {
    switch (rng.uniform_int(0, 5)) {
      case 0: stream += encode_hello(sample_hello()); break;
      case 1: stream += encode_submit(sample_submit()); break;
      case 2: {
        ChunkFrame chunk;
        chunk.seq = rng.next_u64() % 100;
        chunk.index = rng.next_u64() % 8;
        chunk.data.assign(static_cast<std::size_t>(rng.uniform_int(0, 300)), 'z');
        stream += encode_chunk(FrameType::kStdout, chunk);
        break;
      }
      case 3: stream += encode_heartbeat(HeartbeatFrame{}); break;
      case 4: {
        AckFrame ack;
        for (int k = 0; k < rng.uniform_int(0, 5); ++k) ack.seqs.push_back(rng.next_u64());
        stream += encode_ack(ack);
        break;
      }
      default: stream += encode_bye(); break;
    }
  }
  return stream;
}

void consume_everything(const std::string& bytes, std::size_t step) {
  FrameDecoder decoder;
  std::size_t off = 0;
  try {
    while (off < bytes.size()) {
      std::size_t n = std::min(step, bytes.size() - off);
      decoder.feed(bytes.data() + off, n);
      off += n;
      while (std::optional<Frame> frame = decoder.next()) {
        // Feed every typed decoder; wrong-type/corrupt payloads must throw
        // cleanly rather than crash.
        try { decode_hello(*frame); } catch (const ProtocolError&) {}
        try { decode_submit(*frame); } catch (const ProtocolError&) {}
        try { decode_chunk(*frame); } catch (const ProtocolError&) {}
        try { decode_result(*frame); } catch (const ProtocolError&) {}
        try { decode_ack(*frame); } catch (const ProtocolError&) {}
        try { decode_heartbeat(*frame); } catch (const ProtocolError&) {}
        try { decode_kill(*frame); } catch (const ProtocolError&) {}
        try { decode_hello_ack(*frame); } catch (const ProtocolError&) {}
      }
    }
  } catch (const ProtocolError&) {
    // Poisoned decoder: expected terminal state for corrupt streams.
  }
}

TEST(TransportFuzz, MutatedValidStreamsNeverCrash) {
  const int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    util::Rng rng(0xf00d + static_cast<std::uint64_t>(round));
    std::string bytes = valid_stream(rng);
    // Mutate: flip bytes, truncate, or splice garbage.
    int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          std::size_t pos = rng.next_u64() % bytes.size();
          bytes[pos] = static_cast<char>(rng.next_u64() & 0xff);
          break;
        }
        case 1:
          bytes.resize(rng.next_u64() % (bytes.size() + 1));
          break;
        default: {
          std::size_t pos = rng.next_u64() % (bytes.size() + 1);
          std::string junk(static_cast<std::size_t>(rng.uniform_int(1, 16)), '\0');
          for (char& c : junk) c = static_cast<char>(rng.next_u64() & 0xff);
          bytes.insert(pos, junk);
          break;
        }
      }
    }
    std::size_t step = static_cast<std::size_t>(rng.uniform_int(1, 64));
    consume_everything(bytes, step);
  }
}

TEST(TransportFuzz, PureRandomStreamsNeverCrash) {
  const int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    util::Rng rng(0xbeef + static_cast<std::uint64_t>(round));
    std::string bytes(static_cast<std::size_t>(rng.uniform_int(0, 2048)), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_u64() & 0xff);
    consume_everything(bytes, static_cast<std::size_t>(rng.uniform_int(1, 128)));
  }
}

TEST(TransportFuzz, FaultFilterSchedulesAreDeterministic) {
  TransportFaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.2;
  plan.reorder_prob = 0.2;
  auto run = [&plan] {
    FrameFaultFilter filter(plan);
    std::vector<FrameType> seen;
    std::vector<Frame> out;
    for (int i = 0; i < 200; ++i) {
      Frame frame;
      frame.type = (i % 2 == 0) ? FrameType::kResult : FrameType::kHeartbeat;
      frame.payload = std::to_string(i);
      filter.filter(std::move(frame), /*now=*/i * 0.01, out);
    }
    filter.release_due(/*now=*/1e9, out);
    for (const Frame& f : out) seen.push_back(f.type);
    return std::make_pair(seen, filter.counters().dropped);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);
}

TEST(TransportFuzz, ProtectedFramesSurviveTheFilter) {
  TransportFaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 1.0;  // drop everything droppable
  FrameFaultFilter filter(plan);
  std::vector<Frame> out;
  Frame hello;
  hello.type = FrameType::kHello;
  filter.filter(hello, 0.0, out);
  Frame bye;
  bye.type = FrameType::kBye;
  filter.filter(bye, 0.0, out);
  Frame result;
  result.type = FrameType::kResult;
  filter.filter(result, 0.0, out);
  ASSERT_EQ(out.size(), 2u);  // HELLO and BYE pass; RESULT dropped
  EXPECT_EQ(out[0].type, FrameType::kHello);
  EXPECT_EQ(out[1].type, FrameType::kBye);
  EXPECT_EQ(filter.counters().dropped, 1u);
}

// ---------------------------------------------------------------------------
// Size helpers.
// ---------------------------------------------------------------------------

TEST(TransportCodec, EncodedSizeMatchesSubmitBytes) {
  SubmitFrame submit = sample_submit();
  std::size_t payload = 4;
  for (const JobSpec& job : submit.jobs) payload += encoded_size(job);
  EXPECT_EQ(encode_submit(submit).size(), 5 + payload);
}

TEST(TransportCodec, JobOutputEqualsChunkFramesThenResult) {
  for (std::size_t out_size : {std::size_t{0}, std::size_t{1}, kChunkBytes,
                               2 * kChunkBytes + 3}) {
    std::string out(out_size, 'o');
    std::string err(out_size / 2 + 1, 'e');
    ResultFrame result;
    result.seq = 9;
    result.exit_code = 4;
    std::string expected;
    ChunkFrame chunk;
    chunk.seq = 9;
    for (std::size_t off = 0; off < out.size(); off += kChunkBytes) {
      chunk.data = out.substr(off, kChunkBytes);
      expected += encode_chunk(FrameType::kStdout, chunk);
      ++chunk.index;
      ++result.stdout_chunks;
    }
    chunk.index = 0;
    for (std::size_t off = 0; off < err.size(); off += kChunkBytes) {
      chunk.data = err.substr(off, kChunkBytes);
      expected += encode_chunk(FrameType::kStderr, chunk);
      ++chunk.index;
      ++result.stderr_chunks;
    }
    expected += encode_result(result);
    ResultFrame bare = result;
    bare.stdout_chunks = bare.stderr_chunks = 0;  // counted by the encoder
    EXPECT_EQ(encode_job_output(bare, out, err), expected) << out_size;
  }
}

// ---------------------------------------------------------------------------
// Channel: the nonblocking framed endpoint.
// ---------------------------------------------------------------------------

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

std::string big_chunk(std::size_t bytes, std::uint64_t seq = 1) {
  ChunkFrame chunk;
  chunk.seq = seq;
  chunk.data.resize(bytes);
  for (std::size_t i = 0; i < bytes; ++i) chunk.data[i] = static_cast<char>('a' + i % 26);
  return encode_chunk(FrameType::kStdout, chunk);
}

// Pumps both channels until `rx` has `count` frames (or a deadline passes).
std::vector<Frame> pump_until(Channel& tx, Channel& rx, std::size_t count) {
  std::vector<Frame> frames;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (frames.size() < count && std::chrono::steady_clock::now() < deadline) {
    tx.flush();
    rx.wait(5, frames);
  }
  return frames;
}

TEST(TransportChannel, SendNeverBlocksOnAFullSocket) {
  SocketPair pair;
  int small = 4096;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  ASSERT_EQ(::setsockopt(pair.fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)), 0);
  Channel tx(pair.fds[0]);
  Channel rx(pair.fds[1]);
  const std::string frame = big_chunk(1 << 20);  // far above both buffers
  auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(tx.send(frame));  // nobody reads yet: a blocking write would hang
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(1));
  EXPECT_TRUE(tx.want_write());
  std::vector<Frame> frames = pump_until(tx, rx, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(decode_chunk(frames[0]).data.size(), std::size_t{1} << 20);
  EXPECT_EQ(frames[0].payload, frame.substr(5));
  EXPECT_FALSE(tx.want_write());
  EXPECT_TRUE(tx.ok());
  EXPECT_TRUE(rx.ok());
}

TEST(TransportChannel, FramesSplitAtEveryByteDecodeInOrder) {
  std::string stream = encode_hello(sample_hello());
  stream += encode_submit(sample_submit());
  stream += encode_bye();
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    SocketPair pair;
    Channel rx(pair.fds[1]);
    std::vector<Frame> frames;
    ASSERT_EQ(::write(pair.fds[0], stream.data(), cut), static_cast<ssize_t>(cut));
    EXPECT_EQ(rx.read(frames), Channel::Status::kOpen);
    ASSERT_EQ(::write(pair.fds[0], stream.data() + cut, stream.size() - cut),
              static_cast<ssize_t>(stream.size() - cut));
    EXPECT_EQ(rx.read(frames), Channel::Status::kOpen);
    ASSERT_EQ(frames.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(frames[0].type, FrameType::kHello);
    EXPECT_EQ(frames[1].type, FrameType::kSubmit);
    EXPECT_EQ(frames[2].type, FrameType::kBye);
    EXPECT_EQ(decode_submit(frames[1]).jobs.size(), 2u);
  }
}

TEST(TransportChannel, EofAndPoisonComeBackAsStatus) {
  {
    SocketPair pair;
    Channel rx(pair.fds[1]);
    std::string bye = encode_bye();
    ASSERT_EQ(::write(pair.fds[0], bye.data(), bye.size()), static_cast<ssize_t>(bye.size()));
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::vector<Frame> frames;
    EXPECT_EQ(rx.wait(1000, frames), Channel::Status::kEof);
    ASSERT_EQ(frames.size(), 1u);  // the frame before the EOF still arrives
    EXPECT_EQ(frames[0].type, FrameType::kBye);
    EXPECT_FALSE(rx.send(encode_bye()));  // the status sticks
  }
  {
    SocketPair pair;
    Channel rx(pair.fds[1]);
    std::string bytes = encode_drain();
    bytes += std::string("\x01\x00\x00\x00\xee", 5);  // unknown type byte
    ASSERT_EQ(::write(pair.fds[0], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    std::vector<Frame> frames;
    EXPECT_EQ(rx.wait(1000, frames), Channel::Status::kProtocolError);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, FrameType::kDrain);
    EXPECT_EQ(rx.read(frames), Channel::Status::kProtocolError);
  }
  {
    SocketPair pair;
    Channel tx(pair.fds[0]);
    ::close(pair.fds[1]);
    pair.fds[1] = -1;
    // MSG_NOSIGNAL: a vanished peer is an error status, not a SIGPIPE.
    EXPECT_FALSE(tx.send(big_chunk(1024)));
    EXPECT_EQ(tx.status(), Channel::Status::kIoError);
  }
}

TEST(TransportChannel, DrainGivesUpAtItsDeadline) {
  SocketPair pair;
  int small = 4096;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  Channel tx(pair.fds[0]);
  tx.send(big_chunk(1 << 20));  // the peer never reads
  auto started = std::chrono::steady_clock::now();
  EXPECT_FALSE(tx.drain(started + std::chrono::milliseconds(50)));
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(2));
  EXPECT_TRUE(tx.want_write());
  EXPECT_TRUE(tx.ok());
}

TEST(TransportChannel, PipePairCarriesBothDirectionsAtOnce) {
  // The ssh-spawned worker reads stdin and writes stdout: two fds per end.
  // Both ends send more than a pipe holds before either reads, which is the
  // shape that deadlocked blocking writes.
  int up[2];
  int down[2];
  ASSERT_EQ(::pipe(up), 0);
  ASSERT_EQ(::pipe(down), 0);
  {
    Channel pilot(/*read_fd=*/up[0], /*write_fd=*/down[1]);
    Channel worker(/*read_fd=*/down[0], /*write_fd=*/up[1]);
    const std::string submit = big_chunk(512 * 1024, 1);
    const std::string result = big_chunk(768 * 1024, 2);
    EXPECT_TRUE(pilot.send(submit));
    EXPECT_TRUE(worker.send(result));
    EXPECT_TRUE(pilot.send(encode_drain()));
    std::vector<Frame> at_worker;
    std::vector<Frame> at_pilot;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((at_worker.size() < 2 || at_pilot.size() < 1) &&
           std::chrono::steady_clock::now() < deadline) {
      worker.wait(5, at_worker);
      pilot.wait(5, at_pilot);
    }
    ASSERT_EQ(at_worker.size(), 2u);
    ASSERT_EQ(at_pilot.size(), 1u);
    EXPECT_EQ(at_worker[0].payload, submit.substr(5));
    EXPECT_EQ(at_worker[1].type, FrameType::kDrain);
    EXPECT_EQ(at_pilot[0].payload, result.substr(5));
    EXPECT_TRUE(pilot.ok());
    EXPECT_TRUE(worker.ok());
  }
  for (int fd : {up[0], up[1], down[0], down[1]}) ::close(fd);
}

}  // namespace
}  // namespace parcl::exec::transport
