// Extension bench: multiple sender processes sharing one interface.
//
// The paper's key protection claim (§7): "VMMC provides protection between
// senders on one node, as each sender has its own send queue. This design
// works well on both uniprocessor and SMP nodes." The cost (§6): "Picking
// up a send request in Myrinet requires scanning send queues of all
// possible senders." This bench shows the aggregate bandwidth and fairness
// as senders are added, plus the per-process scan cost in small-message
// latency.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"

namespace {

using namespace vmmc;
using namespace vmmc::bench;

struct MultiResult {
  double aggregate_mb_s = 0;
  double fairness = 0;  // min/max of per-sender bytes
  double small_latency_us = 0;
};

MultiResult Measure(int senders) {
  MultiResult out;
  sim::Simulator sim;
  Params params;
  vmmc_core::ClusterOptions options;
  options.num_nodes = 2;
  vmmc_core::Cluster cluster(sim, params, options);
  if (!cluster.Boot().ok()) std::abort();

  auto recv = cluster.OpenEndpoint(1, "receiver");
  if (!recv.ok()) std::abort();
  std::vector<std::unique_ptr<vmmc_core::Endpoint>> eps;
  for (int s = 0; s < senders; ++s) {
    auto ep = cluster.OpenEndpoint(0, "sender" + std::to_string(s));
    if (!ep.ok()) std::abort();
    eps.push_back(std::move(ep).value());
  }

  // One 512 KB exported region per sender.
  const std::uint32_t kRegion = 512 * 1024;
  int ready = 0;
  auto setup = [&](int s) -> sim::Process {
    auto buf = recv.value()->AllocBuffer(kRegion);
    vmmc_core::ExportOptions opts;
    opts.name = "sink-" + std::to_string(s);
    auto id = co_await recv.value()->ExportBuffer(buf.value(), kRegion,
                                                  std::move(opts));
    if (!id.ok()) std::abort();
    ++ready;
  };
  for (int s = 0; s < senders; ++s) sim.Spawn(setup(s));
  sim.RunUntil([&] { return ready == senders; });

  // Streaming phase: every sender pushes 4 MB of 64 KB messages.
  const std::uint64_t kTotal = 4ull << 20;
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(senders), 0);
  int finished = 0;
  sim::Tick t0 = sim.now();
  auto stream = [&](int s) -> sim::Process {
    vmmc_core::Endpoint& ep = *eps[static_cast<std::size_t>(s)];
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imp = co_await ep.ImportBuffer(1, "sink-" + std::to_string(s), wait);
    if (!imp.ok()) std::abort();
    auto src = ep.AllocBuffer(64 * 1024);
    while (sent[static_cast<std::size_t>(s)] < kTotal) {
      Status st = co_await ep.SendMsg(src.value(), imp.value().proxy_base,
                                      64 * 1024);
      if (!st.ok()) std::abort();
      sent[static_cast<std::size_t>(s)] += 64 * 1024;
    }
    ++finished;
  };
  for (int s = 0; s < senders; ++s) sim.Spawn(stream(s));
  sim.RunUntil([&] { return finished == senders; });
  out.aggregate_mb_s =
      sim::MBPerSec(kTotal * static_cast<std::uint64_t>(senders), sim.now() - t0);

  // Fairness snapshot midway: rerun with a deadline and compare progress.
  {
    sim::Simulator sim2;
    vmmc_core::Cluster cluster2(sim2, params, options);
    if (!cluster2.Boot().ok()) std::abort();
    auto recv2 = cluster2.OpenEndpoint(1, "receiver");
    std::vector<std::unique_ptr<vmmc_core::Endpoint>> eps2;
    for (int s = 0; s < senders; ++s) {
      eps2.push_back(std::move(cluster2.OpenEndpoint(0, "s" + std::to_string(s))).value());
    }
    int ready2 = 0;
    auto setup2 = [&](int s) -> sim::Process {
      auto buf = recv2.value()->AllocBuffer(kRegion);
      vmmc_core::ExportOptions opts;
      opts.name = "sink-" + std::to_string(s);
      auto id = co_await recv2.value()->ExportBuffer(buf.value(), kRegion,
                                                     std::move(opts));
      if (!id.ok()) std::abort();
      ++ready2;
    };
    for (int s = 0; s < senders; ++s) sim2.Spawn(setup2(s));
    sim2.RunUntil([&] { return ready2 == senders; });
    std::vector<std::uint64_t> progress(static_cast<std::size_t>(senders), 0);
    auto stream2 = [&](int s) -> sim::Process {
      vmmc_core::Endpoint& ep = *eps2[static_cast<std::size_t>(s)];
      vmmc_core::ImportOptions wait;
      wait.wait = true;
      auto imp = co_await ep.ImportBuffer(1, "sink-" + std::to_string(s), wait);
      auto src = ep.AllocBuffer(64 * 1024);
      for (;;) {
        Status st = co_await ep.SendMsg(src.value(), imp.value().proxy_base,
                                        64 * 1024);
        if (!st.ok()) std::abort();
        progress[static_cast<std::size_t>(s)] += 64 * 1024;
      }
    };
    for (int s = 0; s < senders; ++s) sim2.Spawn(stream2(s));
    sim2.RunUntilTime(sim2.now() + 50 * sim::kMillisecond);
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (auto p : progress) {
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    out.fairness = hi == 0 ? 0.0 : static_cast<double>(lo) / static_cast<double>(hi);
  }

  // Small-message latency with the queues of the other senders registered
  // (the per-process scan cost).
  {
    TwoNodeFixture fx;
    // Register extra idle processes so the scan is longer.
    std::vector<std::unique_ptr<vmmc_core::Endpoint>> idle;
    for (int s = 1; s < senders; ++s) {
      idle.push_back(
          std::move(fx.cluster().OpenEndpoint(0, "idle" + std::to_string(s))).value());
    }
    PingPongResult r;
    RunPingPong(fx, 4, 100, r);
    out.small_latency_us = r.one_way_us;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Extension: multiple sender processes per interface (sections 6/7)\n\n");
  Table table({"senders", "aggregate MB/s", "fairness (min/max)",
               "1-word latency (us)"});
  // Four senders fill node 0's SRAM: the LCP's 64 KB and the 16-entry
  // go-back-N retransmit pool (16 x 4136 B) leave 130,432 of 262,144 B,
  // and each process takes 26,880 B (send queue, outgoing page table,
  // software TLB), so a fifth OpenEndpoint is RESOURCE_EXHAUSTED.
  for (int senders : {1, 2, 3, 4}) {
    MultiResult r = Measure(senders);
    table.AddRow({std::to_string(senders), FormatDouble(r.aggregate_mb_s, 1),
                  FormatDouble(r.fairness, 2), FormatDouble(r.small_latency_us, 2)});
  }
  table.Print();
  std::printf("\n(each registered process adds SRAM structures and queue-scan "
              "time; fairness comes from round-robin pickup)\n");
  return 0;
}
