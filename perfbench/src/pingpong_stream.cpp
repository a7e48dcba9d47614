// pingpong_stream: two nodes on raw VMMC (Endpoint::SendMsg /
// SendMsgAsync / WaitSend into an imported buffer) — the paper's own path
// with no p2p, coll or registration cache. Two closed-loop phases:
//  1. ping-pong: each round trip waits for the echo before the next one;
//     sizes are drawn from the Figure 2 range (4..512 B) plus 3.5..4 KB, with a
//     short seeded pause before each round trip;
//  2. one-way stream of 4 KB..1 MB messages cycling through the 2 MB
//     receive buffer; the receiver checks each message and returns a
//     credit, and the sender reuses buffer space only once it is credited.
// Every payload is checked byte for byte on arrival.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "two_node.h"

namespace perfbench {
namespace {

using vmmc::mem::VirtAddr;
using vmmc::sim::Process;
using vmmc::vmmc_core::Endpoint;
using vmmc::vmmc_core::SendHandle;

constexpr int kPingPongs = 2000;
constexpr int kStreamMessages = 160;
constexpr std::uint32_t kMaxPingPong = 4096;
constexpr std::uint32_t kMinStream = 4096;
constexpr std::uint32_t kMaxStream = 1024 * 1024;
constexpr Tick kPingPoll = 250;      // the paper benches' spin granularity
constexpr Tick kStreamPoll = 1000;   // receiver / credit spin
// Simulated deadline of each timed phase (they take ~0.1 s and ~0.4 s).
constexpr Tick kPhaseDeadline = vmmc::sim::Seconds(2);
constexpr std::uint32_t kMarkerBytes = 8;
// The pinger pauses a seeded 0..2 us before each round trip, as an
// application computing between messages would, so sends do not all land
// in the same phase of the LCP's polling loop.
constexpr Tick kMaxThink = 2000;

struct Inputs {
  std::vector<std::uint32_t> pingpong;  // round-trip sizes
  std::vector<Tick> think;              // pinger's pause before each one
  std::vector<std::uint32_t> stream;    // message sizes
  std::uint64_t key = 0;                // payload pattern stream
};

// Exactly one in ten round trips is a page-sized message (3.5..4 KB, still
// one page and one chunk); the rest are uniform over the Figure 2 range,
// 4..512 B. Stream sizes are stratified (one seeded draw per equal-width
// stratum, then shuffled), so every seed moves about the same bytes.
Inputs MakeInputs(Rng& rng, int pingpongs, int messages) {
  Inputs in;
  for (int i = 0; i < pingpongs; ++i) {
    const bool page = i < pingpongs / 10;
    in.pingpong.push_back(
        4 * static_cast<std::uint32_t>(page ? rng.Range(896, 1024)
                                            : rng.Range(1, 128)));
  }
  rng.Shuffle(in.pingpong);
  for (int i = 0; i < pingpongs; ++i) {
    in.think.push_back(static_cast<Tick>(rng.Range(0, kMaxThink - 1)));
  }
  for (int i = 0; i < messages; ++i) {
    // Log-uniform between 4 KB and 1 MB (2^8 times larger), word-aligned.
    const double u = (i + rng.Unit()) / messages;
    const double len = kMinStream * std::exp2(8.0 * u);
    in.stream.push_back(std::min(static_cast<std::uint32_t>(len) & ~3u, kMaxStream));
  }
  rng.Shuffle(in.stream);
  in.key = rng.Next();
  return in;
}

// The ping-pong and stream phases over one TwoNode; op ids start at
// `op_base` so warm-up and timed spans stay distinct.
class Phases {
 public:
  Phases(TwoNode& fx, Rep& rep, SpanLog* log)
      : fx_(fx), rep_(rep), log_(log), expect_(kMaxStream), scratch_(kMaxStream) {}

  // Returns false on a stall past `deadline`.
  bool PingPong(const Inputs& in, std::vector<double>* lat_us, Tick deadline) {
    bool done = false;
    fx_.sim.Spawn(Pong(in));
    fx_.sim.Spawn(Ping(in, lat_us, &done));
    return Drive(fx_.sim, [&] { return done; }, deadline, engine_s_, log_);
  }

  // Returns the stream's payload bytes and sets *elapsed to its duration.
  bool Stream(const Inputs& in, Tick deadline, std::uint64_t* bytes,
              Tick* elapsed) {
    bool done = false;
    credit_ = 0;
    (void)fx_.a->memory().WriteU32(fx_.a_recv, 0);
    const Tick t0 = fx_.sim.now();
    Tick t1 = t0;
    fx_.sim.Spawn(StreamRecv(in, &done, &t1));
    fx_.sim.Spawn(StreamSend(in));
    const bool ok = Drive(fx_.sim, [&] { return done; }, deadline, engine_s_, log_);
    *bytes = 0;
    for (std::uint32_t len : in.stream) *bytes += len;
    *elapsed = t1 - t0;
    return ok;
  }

  void set_engine_s(double* s) { engine_s_ = s; }
  void set_op_base(std::uint32_t b) { op_base_ = b; }

 private:
  // Byte pattern of message `i` in direction `dir`; for ping-pong messages
  // the last byte is the nonzero arrival flag, for stream messages the
  // last 8 bytes are a nonzero marker.
  void Pattern(const Inputs& in, std::uint64_t dir, std::uint64_t i,
               std::uint32_t len, bool stream, std::vector<std::uint8_t>& out) {
    FillPattern(in.key ^ (dir << 62) ^ i, out.data(), len);
    if (stream) {
      const std::uint64_t marker = (in.key ^ 0x5EC0DE) + i + 1;
      std::memcpy(out.data() + len - kMarkerBytes, &marker, kMarkerBytes);
    } else {
      out[len - 1] = Flag(i);
    }
  }
  static std::uint8_t Flag(std::uint64_t i) {
    return static_cast<std::uint8_t>(i % 255 + 1);
  }
  // Compares [va, va+len) with `want`, then zeroes it so a stale flag or
  // marker can never be mistaken for the next arrival.
  bool CheckAndClear(Endpoint& ep, VirtAddr va, std::uint32_t len,
                     const std::vector<std::uint8_t>& want) {
    std::span<std::uint8_t> got(scratch_.data(), len);
    const bool ok = ep.ReadBuffer(va, got).ok() &&
                    std::memcmp(got.data(), want.data(), len) == 0;
    std::memset(got.data(), 0, len);
    (void)ep.WriteBuffer(va, got);
    return ok;
  }

  Process Ping(const Inputs& in, std::vector<double>* lat_us, bool* done) {
    std::vector<std::uint8_t> msg(kMaxPingPong);
    for (std::size_t i = 0; i < in.pingpong.size(); ++i) {
      const std::uint32_t len = in.pingpong[i];
      const auto op = static_cast<std::uint32_t>(op_base_ + i);
      if (i < in.think.size()) co_await fx_.sim.Delay(in.think[i]);
      const std::int32_t root = log_->Begin("bench.pingpong", op, -1, fx_.sim.now());
      Pattern(in, 0, i, len, false, msg);
      (void)fx_.a->WriteBuffer(fx_.a_src, std::span(msg.data(), len));
      const Tick t0 = fx_.sim.now();
      const std::int32_t send = log_->Begin("api.SendMsg", op, root, t0);
      vmmc::Status s = co_await fx_.a->SendMsg(fx_.a_src, fx_.a_to_b.proxy_base, len);
      log_->End(send, fx_.sim.now());
      if (!s.ok()) rep_.Fail("ping " + std::to_string(i) + ": " + s.ToString());
      const std::int32_t spin = log_->Begin("bench.spin", op, root, fx_.sim.now());
      const VirtAddr flag = fx_.a_recv + len - 1;
      for (;;) {
        std::uint8_t b = 0;
        (void)fx_.a->ReadBuffer(flag, {&b, 1});
        if (b == Flag(i)) break;
        co_await fx_.sim.Delay(kPingPoll);
      }
      const Tick t1 = fx_.sim.now();
      log_->End(spin, t1);
      if (lat_us != nullptr) {
        lat_us->push_back(vmmc::sim::ToMicroseconds(t1 - t0) / 2.0);
      }
      Pattern(in, 1, i, len, false, expect_);
      if (!CheckAndClear(*fx_.a, fx_.a_recv, len, expect_)) {
        rep_.Fail("pong payload " + std::to_string(i) + " (" +
                  std::to_string(len) + " B) differs");
      }
      log_->End(root, fx_.sim.now());
    }
    *done = true;
  }

  Process Pong(const Inputs& in) {
    std::vector<std::uint8_t> want(kMaxPingPong), msg(kMaxPingPong);
    for (std::size_t i = 0; i < in.pingpong.size(); ++i) {
      const std::uint32_t len = in.pingpong[i];
      const auto op = static_cast<std::uint32_t>(op_base_ + i);
      const VirtAddr flag = fx_.b_recv + len - 1;
      for (;;) {
        std::uint8_t b = 0;
        (void)fx_.b->ReadBuffer(flag, {&b, 1});
        if (b == Flag(i)) break;
        co_await fx_.sim.Delay(kPingPoll);
      }
      const std::int32_t root = log_->Begin("bench.pong", op, -1, fx_.sim.now());
      Pattern(in, 0, i, len, false, want);
      if (!CheckAndClear(*fx_.b, fx_.b_recv, len, want)) {
        rep_.Fail("ping payload " + std::to_string(i) + " (" +
                  std::to_string(len) + " B) differs");
      }
      Pattern(in, 1, i, len, false, msg);
      (void)fx_.b->WriteBuffer(fx_.b_src, std::span(msg.data(), len));
      const std::int32_t send = log_->Begin("api.SendMsg", op, root, fx_.sim.now());
      vmmc::Status s = co_await fx_.b->SendMsg(fx_.b_src, fx_.b_to_a.proxy_base, len);
      log_->End(send, fx_.sim.now());
      log_->End(root, fx_.sim.now());
      if (!s.ok()) rep_.Fail("pong " + std::to_string(i) + ": " + s.ToString());
    }
  }

  Process StreamSend(const Inputs& in) {
    struct Pending {
      std::size_t index;
      std::uint32_t off, len;
    };
    std::deque<Pending> unverified;
    std::deque<SendHandle> handles;
    std::vector<std::uint8_t> msg(kMaxStream);
    const std::uint64_t base = in.pingpong.size();
    std::uint32_t off = 0;
    for (std::size_t j = 0; j < in.stream.size(); ++j) {
      const std::uint32_t len = in.stream[j];
      const auto op = static_cast<std::uint32_t>(op_base_ + base + j);
      const std::int32_t root = log_->Begin("bench.stream_send", op, -1, fx_.sim.now());
      if (off + len > TwoNode::kBufferBytes) off = 0;
      // Wait until every earlier message overlapping [off, off+len) has
      // been checked by the receiver (credit = messages checked so far).
      const std::int32_t wait =
          log_->Begin("bench.credit_wait", op, root, fx_.sim.now());
      for (;;) {
        while (!unverified.empty() && credit_ > unverified.front().index) {
          unverified.pop_front();
        }
        bool overlaps = false;
        for (const Pending& p : unverified) {
          overlaps = overlaps || (off < p.off + p.len && p.off < off + len);
        }
        if (!overlaps) break;
        co_await fx_.sim.Delay(kStreamPoll);
        credit_ = fx_.a->memory().ReadU32(fx_.a_recv).value_or(0);
      }
      log_->End(wait, fx_.sim.now());
      Pattern(in, 2, j, len, true, msg);
      (void)fx_.a->WriteBuffer(fx_.a_src + off, std::span(msg.data(), len));
      const std::int32_t post =
          log_->Begin("api.SendMsgAsync", op, root, fx_.sim.now());
      auto h = co_await fx_.a->SendMsgAsync(fx_.a_src + off,
                                            fx_.a_to_b.proxy_base + off, len);
      log_->End(post, fx_.sim.now());
      if (!h.ok()) {
        rep_.Fail("stream send " + std::to_string(j) + ": " + h.status().ToString());
      } else {
        handles.push_back(h.value());
      }
      unverified.push_back({j, off, len});
      off += len;
      while (handles.size() > 2 || (j + 1 == in.stream.size() && !handles.empty())) {
        const std::int32_t ws = log_->Begin("api.WaitSend", op, root, fx_.sim.now());
        vmmc::Status s = co_await fx_.a->WaitSend(handles.front());
        log_->End(ws, fx_.sim.now());
        handles.pop_front();
        if (!s.ok()) rep_.Fail("stream completion: " + s.ToString());
      }
      log_->End(root, fx_.sim.now());
    }
  }

  Process StreamRecv(const Inputs& in, bool* done, Tick* finished_at) {
    const std::uint64_t base = in.pingpong.size();
    std::uint32_t off = 0;
    for (std::size_t j = 0; j < in.stream.size(); ++j) {
      const std::uint32_t len = in.stream[j];
      const auto op = static_cast<std::uint32_t>(op_base_ + base + j);
      if (off + len > TwoNode::kBufferBytes) off = 0;
      const std::uint64_t marker = (in.key ^ 0x5EC0DE) + j + 1;
      const VirtAddr tail = fx_.b_recv + off + len - kMarkerBytes;
      const std::int32_t root = log_->Begin("bench.stream_recv", op, -1, fx_.sim.now());
      for (;;) {
        std::uint64_t got = 0;
        (void)fx_.b->ReadBuffer(tail, {reinterpret_cast<std::uint8_t*>(&got), 8});
        if (got == marker) break;
        co_await fx_.sim.Delay(kStreamPoll);
      }
      Pattern(in, 2, j, len, true, expect_);
      if (!CheckAndClear(*fx_.b, fx_.b_recv + off, len, expect_)) {
        rep_.Fail("stream payload " + std::to_string(j) + " (" +
                  std::to_string(len) + " B) differs");
      }
      off += len;
      (void)fx_.b->memory().WriteU32(fx_.b_src, static_cast<std::uint32_t>(j + 1));
      const std::int32_t send = log_->Begin("api.SendMsg", op, root, fx_.sim.now());
      vmmc::Status s = co_await fx_.b->SendMsg(fx_.b_src, fx_.b_to_a.proxy_base, 4);
      log_->End(send, fx_.sim.now());
      log_->End(root, fx_.sim.now());
      if (!s.ok()) rep_.Fail("stream credit: " + s.ToString());
    }
    *finished_at = fx_.sim.now();
    *done = true;
  }

  TwoNode& fx_;
  Rep& rep_;
  SpanLog* log_;
  std::vector<std::uint8_t> expect_, scratch_;
  std::uint32_t credit_ = 0;
  double* engine_s_ = nullptr;
  std::uint32_t op_base_ = 0;
};

}  // namespace

Rep RunPingpongStream(const RunConfig& cfg) {
  Rep rep;
  rep.spans = SpanLog(cfg.trace);
  SpanLog* log = &rep.spans;
  Rng rng = WorkloadRng(cfg.seed, 0x9196);
  const Inputs timed = MakeInputs(rng, kPingPongs, kStreamMessages);
  // Warm-up: every ping-pong size class once, then 1 MB messages over the
  // whole 2 MB buffer so every page's translation is cached.
  Inputs warm;
  warm.pingpong = {4, 128, 512, 4096};
  warm.stream = {kMaxStream, kMaxStream, kMaxStream};
  warm.key = rng.Next();

  const std::int64_t setup_t0 = HostNs();
  TwoNode fx;
  if (!fx.SetUp(rep)) return rep;
  Phases phases(fx, rep, log);
  std::uint64_t bytes = 0;
  Tick elapsed = 0;
  phases.set_op_base(1u << 30);
  if (!phases.PingPong(warm, nullptr, fx.sim.now() + vmmc::sim::Seconds(1)) ||
      !phases.Stream(warm, fx.sim.now() + vmmc::sim::Seconds(1), &bytes,
                     &elapsed)) {
    rep.Fail("warm-up stalled");
    return rep;
  }
  rep.setup_s = SecondsSince(setup_t0);

  const Counters before = ReadCounters(fx.sim.metrics(), 2);
  const std::uint64_t events0 = fx.sim.events_processed();
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t timed_t0 = HostNs();
  phases.set_op_base(0);
  phases.set_engine_s(&rep.engine_s);
  const bool pp_ok = phases.PingPong(timed, &rep.latency_us,
                                     fx.sim.now() + kPhaseDeadline);
  const bool st_ok = pp_ok && phases.Stream(timed, fx.sim.now() + kPhaseDeadline,
                                            &bytes, &elapsed);
  rep.timed_s = SecondsSince(timed_t0);
  rep.allocs = AllocCount() - allocs0;
  rep.events = fx.sim.events_processed() - events0;
  rep.counters = Diff(ReadCounters(fx.sim.metrics(), 2), before);
  rep.ops = timed.pingpong.size() + timed.stream.size();
  if (!pp_ok || !st_ok) {
    rep.Fail(pp_ok ? "stream stalled" : "ping-pong stalled");
    return rep;
  }
  rep.goodput_mbs = vmmc::sim::MBPerSec(bytes, elapsed);
  return rep;
}

}  // namespace perfbench
