// M1: wall-clock throughput of the simulation engine itself (the one bench
// where wall time is the right metric), using google-benchmark.
//
// The BM_Macro* entries run whole-stack workloads (boot, mapping, LCP,
// multi-switch fabric) and report events/sec — scripts/check_wallclock.py
// records them in BENCH_sim.json and gates regressions in ctest.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "vmmc/vmmc/p2p.h"
#include "vmmc/vmmc/runtime.h"
#include "vmmc/coll/communicator.h"
#include "vmmc/myrinet/crc8.h"
#include "vmmc/myrinet/topology.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"

namespace {

using namespace vmmc::sim;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 10000; ++i) sim.At(i, [] {});
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventDispatch);

// Same dispatch loop with the per-event observability cost the hot paths
// pay when tracing is compiled in but disabled: one counter increment and
// one inert span. Compare against BM_EventDispatch for the overhead.
void BM_EventDispatchInstrumented(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    vmmc::obs::Counter& events = sim.metrics().GetCounter("bench.events");
    const int track = sim.tracer().RegisterTrack("bench");
    for (int i = 0; i < 10000; ++i) {
      sim.At(i, [&sim, &events, track] {
        events.Inc();
        auto span = sim.tracer().Scope(track, "event");
        benchmark::DoNotOptimize(span);
      });
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventDispatchInstrumented);

Process Chain(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.Delay(1);
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int p = 0; p < 100; ++p) sim.Spawn(Chain(sim, 100));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * 100);
}
BENCHMARK(BM_CoroutineDelayChain);

Process Yielder(Simulator& sim, int n) {
  for (int i = 0; i < n; ++i) co_await sim.Delay(0);
}

// The dominant event kind in the stack: a coroutine wake-up through the
// queue. Delay(0) is exactly one Simulator::Resume per iteration.
void BM_CoroutineResume(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    sim.Spawn(Yielder(sim, 10000));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoroutineResume);

Process Producer(Simulator& sim, Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    box.Put(i);
    co_await sim.Delay(1);
  }
}

Process Consumer(Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    int v = co_await box.Get();
    benchmark::DoNotOptimize(v);
  }
}

void BM_MailboxHandoff(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Mailbox<int> box(sim);
    sim.Spawn(Producer(sim, box, 5000));
    sim.Spawn(Consumer(box, 5000));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_MailboxHandoff);

void BM_Rng(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextU64());
}
BENCHMARK(BM_Rng);

// Link-hardware CRC-8 over one packet payload (Fabric::Inject stamps it,
// the receiving NIC checks it): host bytes/sec of the slicing-by-8 kernel.
void BM_Crc8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::uint8_t> payload(n);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmmc::myrinet::Crc8(payload));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc8)->Arg(64)->Arg(512)->Arg(4096);

// ---------------------------------------------------------------------------
// Macro benchmarks: whole-stack workloads, reported as engine events/sec.
// An event here is a dispatched event or a WaitChange poll phase passed
// without one (Simulator::watch_steps), so the rate counts the same
// simulated work whether a wait spins with Delay or with WaitChange.
// The two parts are reported per iteration as the `dispatched` and
// `watch_steps` counters.
// ---------------------------------------------------------------------------

struct MacroWork {
  std::uint64_t dispatched = 0;
  std::uint64_t watch_steps = 0;

  template <typename Engine>  // Simulator or Cluster
  void Add(const Engine& e) {
    dispatched += e.events_processed();
    watch_steps += e.watch_steps();
  }
  void Report(benchmark::State& state) const {
    state.SetItemsProcessed(
        static_cast<std::int64_t>(dispatched + watch_steps));
    state.counters["dispatched"] = benchmark::Counter(
        static_cast<double>(dispatched), benchmark::Counter::kAvgIterations);
    state.counters["watch_steps"] = benchmark::Counter(
        static_cast<double>(watch_steps), benchmark::Counter::kAvgIterations);
  }
};

// 64-node fat-tree ring allreduce (the coll_scale_test workload at full
// scale): boot + network mapping + lazy links + one allreduce of 64 int64
// per rank. ~10.6M events per iteration.
void BM_MacroAllreduce64(benchmark::State& state) {
  using vmmc::coll::CommOptions;
  using vmmc::coll::Communicator;
  using vmmc::vmmc_core::Cluster;
  using vmmc::vmmc_core::ClusterOptions;
  constexpr int kNodes = 64;
  constexpr std::size_t kElems = 64;
  MacroWork work;
  for (auto _ : state) {
    Simulator sim;
    vmmc::Params params;
    auto options = ClusterOptions::FromSpec("fattree:64@16");
    if (!options.ok()) {
      state.SkipWithError("cluster spec failed");
      return;
    }
    Cluster cluster(sim, params, options.value());
    if (!cluster.Boot().ok()) {
      state.SkipWithError("boot failed");
      return;
    }
    std::vector<std::unique_ptr<Communicator>> comms(kNodes);
    int created = 0;
    auto create = [&cluster, &comms, &created](int r) -> Process {
      CommOptions copts;
      copts.lazy_links = true;
      auto c = co_await Communicator::Create(cluster, r, kNodes, "world", copts);
      if (c.ok()) comms[static_cast<std::size_t>(r)] = std::move(c).value();
      ++created;
    };
    for (int r = 0; r < kNodes; ++r) sim.Spawn(create(r));
    sim.RunUntil([&] { return created == kNodes; }, 10'000'000'000ll);
    int finished = 0;
    auto run = [&comms, &finished](int r) -> Process {
      std::vector<std::int64_t> values(kElems * kNodes,
                                       static_cast<std::int64_t>(r));
      (void)co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
      ++finished;
    };
    for (int r = 0; r < kNodes; ++r) sim.Spawn(run(r));
    if (!sim.RunUntil([&] { return finished == kNodes; }, 60'000'000'000ll)) {
      state.SkipWithError("allreduce did not finish");
      return;
    }
    work.Add(sim);
  }
  work.Report(state);
}
BENCHMARK(BM_MacroAllreduce64)->Unit(benchmark::kMillisecond);

// Fault-sweep replay: a two-node reliable stream under 2% injected packet
// loss — go-back-N retransmission, RTO timers and COW payload bit-flips
// all on the hot path.
void BM_MacroFaultSweepReplay(benchmark::State& state) {
  using namespace vmmc;
  using namespace vmmc::bench;
  constexpr std::uint32_t kLen = 4096;
  constexpr int kIters = 200;
  MacroWork work;
  for (auto _ : state) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    LinkFaultRule rule;
    rule.drop_rate = 0.02;
    rule.bitflip_rate = 0.01;
    fx.sim().faults().Configure(
        FaultPlan::AllLinks(rule, /*seed=*/0xAB1FA017ull));
    const auto& rstats = fx.cluster().node(1).lcp->stats();
    const std::uint64_t expect =
        rstats.bytes_received + static_cast<std::uint64_t>(kLen) * kIters;
    bool sends_done = false;
    auto stream = [&]() -> Process {
      std::vector<std::uint8_t> payload(kLen, 0x5A);
      (void)fx.a().WriteBuffer(fx.a_src(), payload);
      for (int i = 0; i < kIters; ++i) {
        (void)co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), kLen);
      }
      sends_done = true;
    };
    fx.sim().Spawn(stream());
    if (!fx.sim().RunUntil(
            [&] { return sends_done && rstats.bytes_received >= expect; },
            Seconds(10))) {
      state.SkipWithError("stream stalled");
      return;
    }
    work.Add(fx.sim());
  }
  work.Report(state);
}
BENCHMARK(BM_MacroFaultSweepReplay)->Unit(benchmark::kMillisecond);

// Rendezvous stream: a two-node point-to-point channel pushing 64 KB
// messages — RTS posting, reader-pull RdmaRead serving, completion fins
// and the registration cache all on the hot path.
void BM_MacroRendezvousStream(benchmark::State& state) {
  using namespace vmmc;
  using namespace vmmc::bench;
  using vmmc_core::P2pChannel;
  constexpr std::uint32_t kLen = 64 * 1024;
  constexpr int kIters = 200;
  MacroWork work;
  for (auto _ : state) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    std::unique_ptr<P2pChannel> ca, cb;
    int ready = 0;
    auto make = [&fx, &ready](vmmc_core::Endpoint& ep, int peer,
                              std::unique_ptr<P2pChannel>* dst) -> Process {
      auto c = co_await P2pChannel::Create(ep, peer, "bm",
                                           DefaultParams().vmmc.p2p);
      if (c.ok()) *dst = std::move(c).value();
      ++ready;
    };
    fx.sim().Spawn(make(fx.a(), 1, &ca));
    fx.sim().Spawn(make(fx.b(), 0, &cb));
    if (!fx.sim().RunUntil([&] { return ready == 2; }, Seconds(10)) || !ca ||
        !cb) {
      state.SkipWithError("channel setup failed");
      return;
    }
    bool done = false;
    auto sender = [&]() -> Process {
      for (int i = 0; i < kIters; ++i) {
        (void)co_await ca->Send(fx.a_src(), kLen);
        (void)co_await ca->Flush();
      }
      done = true;
    };
    auto receiver = [&]() -> Process {
      for (int i = 0; i < kIters; ++i) {
        (void)co_await cb->RecvInto(fx.b_recv_va(), kLen);
      }
    };
    fx.sim().Spawn(receiver());
    fx.sim().Spawn(sender());
    if (!fx.sim().RunUntil([&] { return done; }, Seconds(60))) {
      state.SkipWithError("stream stalled");
      return;
    }
    work.Add(fx.sim());
  }
  work.Report(state);
}
BENCHMARK(BM_MacroRendezvousStream)->Unit(benchmark::kMillisecond);

// The allreduce macro on the partitioned cluster (vmmc/runtime.h), worker
// count as the benchmark argument. /1 runs the serial substrate — the
// reference the threaded rows are measured against; any /N row computes
// the identical allreduce (worker-count-invariant schedule). The work
// runs on the engine's worker threads, so the rate is taken over wall
// time (UseRealTime): the calling thread's CPU time would measure only
// its own share of the cores. Wall-clock scaling requires real cores: on
// a single-CPU host the threaded rows only measure synchronization
// overhead.
void BM_MacroAllreduce64Par(benchmark::State& state) {
  using vmmc::coll::CommOptions;
  using vmmc::coll::Communicator;
  using vmmc::vmmc_core::ClusterOptions;
  using vmmc::vmmc_core::ClusterRuntime;
  using vmmc::vmmc_core::RuntimeOptions;
  constexpr int kNodes = 64;
  constexpr std::size_t kElems = 64;
  const int threads = static_cast<int>(state.range(0));
  MacroWork work;
  for (auto _ : state) {
    vmmc::Params params;
    auto options = ClusterOptions::FromSpec("fattree:64@16");
    if (!options.ok()) {
      state.SkipWithError("cluster spec failed");
      return;
    }
    RuntimeOptions rt;
    rt.threads = threads;
    ClusterRuntime runtime(params, options.value(), rt);
    vmmc::vmmc_core::Cluster& cluster = runtime.cluster();
    if (!cluster.Boot().ok()) {
      state.SkipWithError("boot failed");
      return;
    }
    std::vector<std::unique_ptr<Communicator>> comms(kNodes);
    std::atomic<int> created{0};
    auto create = [&cluster, &comms, &created](int r) -> Process {
      CommOptions copts;
      copts.lazy_links = true;
      auto c = co_await Communicator::Create(cluster, r, kNodes, "world", copts);
      if (c.ok()) comms[static_cast<std::size_t>(r)] = std::move(c).value();
      created.fetch_add(1, std::memory_order_relaxed);
    };
    for (int r = 0; r < kNodes; ++r) cluster.node_sim(r).Spawn(create(r));
    if (!cluster.DriveUntil([&] {
          return created.load(std::memory_order_relaxed) == kNodes;
        })) {
      state.SkipWithError("communicator setup stalled");
      return;
    }
    std::atomic<int> finished{0};
    auto run = [&comms, &finished](int r) -> Process {
      std::vector<std::int64_t> values(kElems * kNodes,
                                       static_cast<std::int64_t>(r));
      (void)co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
      finished.fetch_add(1, std::memory_order_relaxed);
    };
    for (int r = 0; r < kNodes; ++r) cluster.node_sim(r).Spawn(run(r));
    if (!cluster.DriveUntil([&] {
          return finished.load(std::memory_order_relaxed) == kNodes;
        })) {
      state.SkipWithError("allreduce did not finish");
      return;
    }
    work.Add(cluster);
  }
  work.Report(state);
}
BENCHMARK(BM_MacroAllreduce64Par)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The fault-sweep macro on the partitioned two-node cluster: go-back-N
// retransmission under per-shard deterministic packet loss, crossing the
// NIC-switch-NIC shard boundaries (including cross-shard drop notices).
// Wall-time rate, as for BM_MacroAllreduce64Par.
void BM_MacroFaultSweepPar(benchmark::State& state) {
  using namespace vmmc;
  using namespace vmmc::bench;
  constexpr std::uint32_t kLen = 4096;
  constexpr int kIters = 200;
  const int threads = static_cast<int>(state.range(0));
  MacroWork work;
  for (auto _ : state) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024, threads);
    LinkFaultRule rule;
    rule.drop_rate = 0.02;
    rule.bitflip_rate = 0.01;
    fx.runtime().ConfigureFaults(
        FaultPlan::AllLinks(rule, /*seed=*/0xAB1FA017ull));
    const auto& rstats = fx.cluster().node(1).lcp->stats();
    const std::uint64_t expect =
        rstats.bytes_received + static_cast<std::uint64_t>(kLen) * kIters;
    bool sends_done = false;
    auto stream = [&]() -> Process {
      std::vector<std::uint8_t> payload(kLen, 0x5A);
      (void)fx.a().WriteBuffer(fx.a_src(), payload);
      for (int i = 0; i < kIters; ++i) {
        (void)co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), kLen);
      }
      sends_done = true;
    };
    fx.sim().Spawn(stream());
    if (!fx.cluster().DriveUntil(
            [&] { return sends_done && rstats.bytes_received >= expect; })) {
      state.SkipWithError("stream stalled");
      return;
    }
    work.Add(fx.cluster());
  }
  work.Report(state);
}
BENCHMARK(BM_MacroFaultSweepPar)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
