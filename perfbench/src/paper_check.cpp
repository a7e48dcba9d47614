// Cross-check against the paper benches: the Figure 2 ping-pong at 4 bytes
// and the Figure 3 ping-pong at 1 MB, run exactly as bench/fig2_latency and
// bench/fig3_bandwidth run them (fresh two-node cluster per size, the
// sequence byte at the end of the message marks arrival, 250 ns spin).
#include <cstdlib>
#include <vector>

#include "bench.h"
#include "two_node.h"

namespace perfbench {
namespace {

using vmmc::mem::VirtAddr;
using vmmc::sim::Process;
using vmmc::sim::Simulator;
using vmmc::vmmc_core::Endpoint;

Process SpinOnByte(Simulator& sim, Endpoint& ep, VirtAddr va,
                   std::uint8_t expected) {
  for (;;) {
    std::uint8_t byte = 0;
    (void)ep.ReadBuffer(va, {&byte, 1});
    if (byte == expected) co_return;
    co_await sim.Delay(250);
  }
}

// One-way latency (us) and bandwidth (MB/s) of `iters` round trips.
bool PingPong(std::uint32_t len, int iters, double* one_way_us,
              double* mb_per_s) {
  TwoNode fx;
  Rep unused;
  if (!fx.SetUp(unused)) return false;
  bool done = false;
  bool failed = false;
  auto ping = [&]() -> Process {
    const VirtAddr flag = fx.a_recv + len - 1;
    const Tick t0 = fx.sim.now();
    for (int i = 1; i <= iters; ++i) {
      const auto seq = static_cast<std::uint8_t>(i & 0xFF);
      std::vector<std::uint8_t> payload(len, seq);
      (void)fx.a->WriteBuffer(fx.a_src, payload);
      vmmc::Status s = co_await fx.a->SendMsg(fx.a_src, fx.a_to_b.proxy_base, len);
      if (!s.ok()) failed = true;
      co_await SpinOnByte(fx.sim, *fx.a, flag, seq);
    }
    const Tick elapsed = fx.sim.now() - t0;
    *one_way_us = vmmc::sim::ToMicroseconds(elapsed) / (2.0 * iters);
    *mb_per_s = vmmc::sim::MBPerSec(2ull * len * static_cast<unsigned>(iters),
                                    elapsed);
    done = true;
  };
  auto pong = [&]() -> Process {
    const VirtAddr flag = fx.b_recv + len - 1;
    for (int i = 1; i <= iters; ++i) {
      const auto seq = static_cast<std::uint8_t>(i & 0xFF);
      co_await SpinOnByte(fx.sim, *fx.b, flag, seq);
      std::vector<std::uint8_t> payload(len, seq);
      (void)fx.b->WriteBuffer(fx.b_src, payload);
      vmmc::Status s = co_await fx.b->SendMsg(fx.b_src, fx.b_to_a.proxy_base, len);
      if (!s.ok()) failed = true;
    }
  };
  fx.sim.Spawn(pong());
  fx.sim.Spawn(ping());
  return Drive(fx.sim, [&] { return done; }, vmmc::sim::Seconds(10), nullptr) &&
         !failed;
}

}  // namespace

PaperCheck RunPaperCheck() {
  PaperCheck pc;
  double unused = 0;
  if (!PingPong(4, 200, &pc.lat4_us, &unused)) pc.lat4_us = 0;
  if (!PingPong(1024 * 1024, 8, &unused, &pc.bw1m_mbs)) pc.bw1m_mbs = 0;
  return pc;
}

}  // namespace perfbench
