// Unit tests for the discrete-event core: event ordering, coroutine
// processes, synchronization primitives, RNG determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"
#include "vmmc/sim/task.h"
#include "vmmc/sim/time.h"

namespace vmmc::sim {
namespace {

using namespace vmmc::sim::literals;

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, EqualTimesFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) sim.At(5, [&order, i] { order.push_back(i); });
  sim.Run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, PostRunsAfterQueuedEventsAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.At(0, [&] {
    order.push_back(1);
    sim.Post([&] { order.push_back(3); });
  });
  sim.At(0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilTimeAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntilTime(1_ms);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int x = 0;
  for (int i = 1; i <= 10; ++i) sim.At(i, [&x] { ++x; });
  EXPECT_TRUE(sim.RunUntil([&] { return x == 4; }));
  EXPECT_EQ(sim.now(), 4);
  sim.Run();
  EXPECT_EQ(x, 10);
}

TEST(SimulatorTest, EventsLimitRespected) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.At(i, [] {});
  EXPECT_EQ(sim.Run(4), 4u);
  EXPECT_EQ(sim.Run(), 6u);
}

Process Sleeper(Simulator& sim, Tick d, std::vector<Tick>& wakes) {
  co_await sim.Delay(d);
  wakes.push_back(sim.now());
}

TEST(ProcessTest, SpawnedProcessRunsAndCompletes) {
  Simulator sim;
  std::vector<Tick> wakes;
  sim.Spawn(Sleeper(sim, 100, wakes));
  sim.Run();
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 100);
}

Process Parent(Simulator& sim, std::vector<std::string>& log) {
  log.push_back("parent-start");
  std::vector<Tick> wakes;  // lives in the frame; the child finishes first
  co_await Sleeper(sim, 50, wakes);
  log.push_back("parent-after-child@" + std::to_string(sim.now()));
}

TEST(ProcessTest, AwaitedChildRunsInline) {
  Simulator sim;
  std::vector<std::string> log;
  sim.Spawn(Parent(sim, log));
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "parent-after-child@50");
}

Process Thrower(Simulator& sim) {
  co_await sim.Delay(1);
  throw std::runtime_error("boom");
}

Process Catcher(Simulator& sim, bool& caught) {
  try {
    co_await Thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(ProcessTest, ChildExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;
  sim.Spawn(Catcher(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

Process Nested3(Simulator& sim, int& depth_reached) {
  co_await sim.Delay(5);
  depth_reached = 3;
}
Process Nested2(Simulator& sim, int& depth_reached) {
  co_await Nested3(sim, depth_reached);
  co_await sim.Delay(5);
}
Process Nested1(Simulator& sim, int& depth_reached, Tick& finish) {
  co_await Nested2(sim, depth_reached);
  finish = sim.now();
}

TEST(ProcessTest, NestedAwaitsAccumulateTime) {
  Simulator sim;
  int depth = 0;
  Tick finish = -1;
  sim.Spawn(Nested1(sim, depth, finish));
  sim.Run();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(finish, 10);
}

Process Ticker(Simulator& sim, int n, int& count) {
  for (int i = 0; i < n; ++i) {
    co_await sim.Delay(10);
    ++count;
  }
}

TEST(ProcessTest, ManyConcurrentProcessesInterleaveDeterministically) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 50; ++i) sim.Spawn(Ticker(sim, 20, count));
  sim.Run();
  EXPECT_EQ(count, 50 * 20);
  EXPECT_EQ(sim.now(), 200);
}

// Counts destructions of the frames it lives in.
struct FrameProbe {
  int* destroyed;
  ~FrameProbe() { ++*destroyed; }
};

Process SleepForever(Simulator& sim, int& destroyed) {
  FrameProbe probe{&destroyed};
  for (;;) co_await sim.Delay(10);
}

Task<int> HoldPermit(Simulator& sim, Semaphore& sem, int& destroyed) {
  FrameProbe probe{&destroyed};
  auto permit = co_await ScopedAcquire(sem);
  co_await sim.Delay(1'000'000);
  co_return 1;
}

Process AwaitChild(Simulator& sim, int& destroyed) {
  FrameProbe probe{&destroyed};
  co_await SleepForever(sim, destroyed);  // suspended child Process
}

Process AwaitTask(Simulator& sim, Semaphore& sem, int& destroyed) {
  FrameProbe probe{&destroyed};
  (void)co_await HoldPermit(sim, sem, destroyed);  // suspended child Task
}

TEST(ProcessTest, ShutdownDestroysSuspendedFramesAndTheirChildren) {
  int destroyed = 0;  // outlives `sim`, whose destructor bumps it again
  int finished_destroyed = 0;
  Simulator sim;
  Semaphore sem(sim, 1);
  sim.Spawn(SleepForever(sim, destroyed));
  sim.Spawn(AwaitChild(sim, destroyed));
  sim.Spawn(AwaitTask(sim, sem, destroyed));
  sim.Spawn([](Simulator& s, int& d) -> Process {
    FrameProbe probe{&d};
    co_await s.Delay(5);
  }(sim, finished_destroyed));
  sim.RunUntilTime(100);
  ASSERT_EQ(finished_destroyed, 1) << "a completed frame frees itself";
  ASSERT_EQ(destroyed, 0);
  ASSERT_EQ(sem.available(), 0);

  sim.Shutdown();
  // SleepForever; AwaitChild and its child; AwaitTask and its Task.
  EXPECT_EQ(destroyed, 5);
  EXPECT_EQ(finished_destroyed, 1) << "no double destroy";
  EXPECT_EQ(sem.available(), 0) << "the permit is dropped, not released";
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_FALSE(TearingDown());

  // The simulator stays usable after Shutdown, and its destructor shuts
  // down again.
  {
    Simulator again;
    again.Spawn(SleepForever(again, destroyed));
    again.RunUntilTime(200);
  }
  EXPECT_EQ(destroyed, 6);
  sim.Spawn(SleepForever(sim, destroyed));
  sim.RunUntilTime(200);
  EXPECT_EQ(destroyed, 6);
}

Process WaitEvent(Simulator& sim, Event& ev, std::vector<Tick>& wakes) {
  co_await ev.Wait();
  wakes.push_back(sim.now());
  (void)sim;
}

TEST(SyncTest, EventWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<Tick> wakes;
  for (int i = 0; i < 3; ++i) sim.Spawn(WaitEvent(sim, ev, wakes));
  sim.At(42, [&] { ev.Set(); });
  sim.Run();
  ASSERT_EQ(wakes.size(), 3u);
  for (Tick t : wakes) EXPECT_EQ(t, 42);
}

TEST(SyncTest, SetEventIsImmediatelyReady) {
  Simulator sim;
  Event ev(sim);
  ev.Set();
  std::vector<Tick> wakes;
  sim.Spawn(WaitEvent(sim, ev, wakes));
  sim.Run();
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 0);
}

Process UseResource(Simulator& sim, Semaphore& sem, Tick hold,
                    std::vector<std::pair<Tick, Tick>>& spans) {
  auto lock = co_await ScopedAcquire(sem);
  Tick start = sim.now();
  co_await sim.Delay(hold);
  spans.emplace_back(start, sim.now());
}

TEST(SyncTest, MutexSerializesHoldersFifo) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<std::pair<Tick, Tick>> spans;
  for (int i = 0; i < 4; ++i) sim.Spawn(UseResource(sim, sem, 100, spans));
  sim.Run();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].first, static_cast<Tick>(100 * i));
    EXPECT_EQ(spans[i].second, static_cast<Tick>(100 * (i + 1)));
  }
}

TEST(SyncTest, CountingSemaphoreAllowsParallelism) {
  Simulator sim;
  Semaphore sem(sim, 2);
  std::vector<std::pair<Tick, Tick>> spans;
  for (int i = 0; i < 4; ++i) sim.Spawn(UseResource(sim, sem, 100, spans));
  sim.Run();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(sim.now(), 200);  // two batches of two
}

Process Producer(Simulator& sim, Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.Delay(10);
    box.Put(i);
  }
}

Process Consumer(Simulator& sim, Mailbox<int>& box, int n, std::vector<int>& got) {
  for (int i = 0; i < n; ++i) {
    int v = co_await box.Get();
    got.push_back(v);
  }
  (void)sim;
}

TEST(SyncTest, MailboxDeliversInOrder) {
  Simulator sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  sim.Spawn(Producer(sim, box, 10));
  sim.Spawn(Consumer(sim, box, 10, got));
  sim.Run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(SyncTest, MailboxMultipleConsumersEachGetOneItem) {
  Simulator sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) sim.Spawn(Consumer(sim, box, 1, got));
  sim.At(5, [&] {
    box.Put(100);
    box.Put(200);
    box.Put(300);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 600);
}

TEST(SyncTest, MailboxTryGet) {
  Simulator sim;
  Mailbox<int> box(sim);
  EXPECT_FALSE(box.TryGet().has_value());
  box.Put(7);
  auto v = box.TryGet();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(box.TryGet().has_value());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformBoundsRespected) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.UniformU64(17), 17u);
    auto v = r.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng r(7);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += r.Bernoulli(0.5);
  EXPECT_NEAR(heads, 50000, 1500);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Microseconds(3), 3000);
  EXPECT_EQ(2_us, 2000);
  EXPECT_DOUBLE_EQ(ToMicroseconds(9800), 9.8);
}

TEST(TimeTest, NsForBytesMatchesRates) {
  // 4096 bytes at 128 MB/s = 32 us.
  EXPECT_EQ(NsForBytes(4096, 128.0), 32000);
  // 1 byte at 160 MB/s rounds up to 7 ns (6.25 exact).
  EXPECT_EQ(NsForBytes(1, 160.0), 7);
  EXPECT_EQ(NsForBytes(0, 100.0), 0);
}

TEST(TimeTest, MBPerSec) {
  EXPECT_DOUBLE_EQ(MBPerSec(4096, 32000), 128.0);
  EXPECT_DOUBLE_EQ(MBPerSec(100, 0), 0.0);
}

// Determinism property: two identical simulations produce identical event
// counts and final clocks.
class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

Process RandomWorkload(Simulator& sim, Rng& rng, Mailbox<int>& box, int id) {
  for (int i = 0; i < 50; ++i) {
    co_await sim.Delay(static_cast<Tick>(rng.UniformU64(1000)));
    box.Put(id * 1000 + i);
  }
}

TEST_P(DeterminismTest, IdenticalSeedsIdenticalTraces) {
  auto run = [&](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    Mailbox<int> box(sim);
    std::vector<int> got;
    for (int id = 0; id < 8; ++id) sim.Spawn(RandomWorkload(sim, rng, box, id));
    sim.Spawn(Consumer(sim, box, 8 * 50, got));
    sim.Run();
    return std::make_tuple(sim.now(), sim.events_processed(), got);
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 42u, 31337u, 0xDEADBEEFu));

}  // namespace
}  // namespace vmmc::sim
