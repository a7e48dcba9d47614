// Golden ordering test for the event engine.
//
// The three-tier queue (now-FIFO, sorted tail list, 4-ary heap) promises
// dispatch order bit-identical to a single (time, seq) priority queue.
// This test drives identical randomized schedules — a mix of At, Post,
// coroutine Resume and Spawn, with heavy time ties and out-of-order
// pushes — through the production Simulator and through a deliberately
// naive reference scheduler (linear scan for the (time, seq) minimum),
// and requires the firing sequences to match exactly.
//
// The second half holds WaitChange to its contract: a watched spin-wait
// must produce the same (time, dispatch order) trace as the
// `co_await Delay(period)` loop it replaces, and dispatch exactly that
// loop's event count minus the rotations it reports in watch_steps().
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/task.h"
#include "vmmc/util/status.h"

namespace vmmc::sim {
namespace {

// One scheduling operation. Ops are identified by the order they were
// scheduled in; firing an op deterministically generates child ops, so
// the whole workload unfolds identically in both schedulers as long as
// they fire ops in the same order — which is exactly what we verify.
struct Op {
  enum Kind { kAt, kPost, kResume, kSpawn };
  Kind kind;
  Tick delay;
};

Op DrawOp(Rng& rng) {
  Op op;
  op.kind = static_cast<Op::Kind>(rng.UniformU64(4));
  // ~40% zero delays: same-tick bursts (FIFO tier, seq tie-breaks) are
  // the adversarial case for ordering bugs.
  const std::uint64_t r = rng.UniformU64(100);
  op.delay = r < 40 ? 0 : static_cast<Tick>(r - 40);
  return op;
}

std::vector<Op> Roots(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> roots;
  for (int i = 0; i < 16; ++i) roots.push_back(DrawOp(rng));
  return roots;
}

// Children of op `id`: a pure function of (seed, id), so both schedulers
// expand the same tree.
std::vector<Op> ChildrenOf(std::uint64_t seed, int id) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id));
  std::vector<Op> children;
  const auto n = rng.UniformU64(4);  // 0..3 children, mean 1.5
  for (std::uint64_t i = 0; i < n; ++i) children.push_back(DrawOp(rng));
  return children;
}

constexpr int kMaxOps = 3000;

// --- Production driver: the real Simulator -------------------------------

class RealDriver {
 public:
  explicit RealDriver(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> Run() {
    for (const Op& op : Roots(seed_)) Schedule(op);
    sim_.Run();
    // Every op is exactly one event in the real engine (kCallback,
    // kResume or kSpawn), so the counts must agree too.
    EXPECT_EQ(sim_.events_processed(), log_.size());
    return std::move(log_);
  }

 private:
  void Fire(int id) {
    log_.push_back(id);
    for (const Op& op : ChildrenOf(seed_, id)) Schedule(op);
  }

  void Schedule(const Op& op) {
    if (next_id_ >= kMaxOps) return;
    const int id = next_id_++;
    switch (op.kind) {
      case Op::kAt:
        sim_.At(sim_.now() + op.delay, [this, id] { Fire(id); });
        break;
      case Op::kPost:
        sim_.Post([this, id] { Fire(id); });
        break;
      case Op::kResume:
        StartParked(id, op.delay);
        break;
      case Op::kSpawn:
        sim_.Spawn(FireProc(id));
        break;
    }
  }

  Process FireProc(int id) {
    Fire(id);
    co_return;
  }

  // Parks at a custom awaiter that captures the frame handle without
  // scheduling anything, so the subsequent wake-up goes through
  // Simulator::Resume itself — the path under test.
  struct Park {
    std::coroutine_handle<>* slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { *slot = h; }
    void await_resume() const noexcept {}
  };

  Process ParkedFire(int id, std::coroutine_handle<>* slot) {
    co_await Park{slot};
    Fire(id);
  }

  void StartParked(int id, Tick delay) {
    parked_.emplace_back();  // deque: stable address for the slot
    std::coroutine_handle<>* slot = &parked_.back();
    Process p = ParkedFire(id, slot);
    Process::Handle h = p.Detach();
    h.promise().started = true;
    h.resume();  // runs synchronously to the park point, fills *slot
    sim_.Resume(*slot, delay);
  }

  Simulator sim_;
  std::uint64_t seed_;
  int next_id_ = 0;
  std::vector<int> log_;
  std::deque<std::coroutine_handle<>> parked_;
};

// --- Reference driver: linear-scan (time, seq) scheduler ------------------

class ReferenceDriver {
 public:
  explicit ReferenceDriver(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> Run() {
    for (const Op& op : Roots(seed_)) Schedule(op);
    while (!events_.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < events_.size(); ++i) {
        const Event& e = events_[i];
        const Event& b = events_[best];
        if (e.time < b.time || (e.time == b.time && e.seq < b.seq)) best = i;
      }
      Event next = std::move(events_[best]);
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
      now_ = next.time;
      Fire(next.id);
    }
    return std::move(log_);
  }

 private:
  struct Event {
    Tick time;
    std::uint64_t seq;
    int id;
  };

  void Fire(int id) {
    log_.push_back(id);
    for (const Op& op : ChildrenOf(seed_, id)) Schedule(op);
  }

  void Schedule(const Op& op) {
    if (next_id_ >= kMaxOps) return;
    const int id = next_id_++;
    // kPost and kSpawn run at now(); kAt and kResume run after delay.
    // The sequence number is assigned at schedule time, exactly as the
    // real engine's monotone seq_ counter is.
    const Tick delay =
        (op.kind == Op::kPost || op.kind == Op::kSpawn) ? 0 : op.delay;
    events_.push_back({now_ + delay, seq_++, id});
  }

  std::uint64_t seed_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::vector<int> log_;
  std::vector<Event> events_;
};

void ExpectIdenticalFiringOrder(std::uint64_t seed) {
  std::vector<int> real = RealDriver(seed).Run();
  std::vector<int> ref = ReferenceDriver(seed).Run();
  ASSERT_GT(real.size(), 16u) << "seed " << seed << " generated no work";
  EXPECT_EQ(real, ref) << "firing order diverged for seed " << seed;
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed1) {
  ExpectIdenticalFiringOrder(1);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed2) {
  ExpectIdenticalFiringOrder(2);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed3) {
  ExpectIdenticalFiringOrder(3);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSweep) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    ExpectIdenticalFiringOrder(seed);
  }
}

// --- WaitChange vs the Delay spin loop it replaces ------------------------

enum class SpinMode { kDelay, kWatch };

// Written by the stop event; a spinner seeing it leaves its loop. Every
// spin condition depends on the watched word alone (the WaitChange
// contract), so stopping has to go through the word too.
constexpr std::uint32_t kStopWord = 0xFFFF'FFFFu;

// A simulator plus a few watched words. Every write and every spinner
// exit is logged as (time, tag); the two modes must log identically.
class SpinWorld {
 public:
  explicit SpinWorld(SpinMode mode) : mode_(mode) {}

  // Spins until words[w] == want (or the stop word); logs the exit.
  Process Spin(int w, std::uint32_t want, Tick period, int tag) {
    co_await SpinUntil(w, want, period);
    Log(tag);
  }

  // Schedules words[w] = v at absolute time t.
  void WriteAt(Tick t, int w, std::uint32_t v, int tag) {
    sim.At(t, [this, w, v, tag] {
      words[w] = v;
      Log(tag);
    });
  }

  struct Result {
    std::vector<std::pair<Tick, int>> log;
    std::uint64_t events = 0;
    std::uint64_t watch_steps = 0;
  };
  Result Finish() {
    sim.Run();
    EXPECT_TRUE(sim.empty());
    return {std::move(log_), sim.events_processed(), sim.watch_steps()};
  }

  Simulator sim;
  std::uint32_t words[4] = {};

 protected:
  Task<Status> SpinUntil(int w, std::uint32_t want, Tick period) {
    while (words[w] != want && words[w] != kStopWord) {
      if (mode_ == SpinMode::kDelay) {
        co_await sim.Delay(period);
      } else {
        co_await sim.WaitChange(&words[w], period);
      }
    }
    co_return OkStatus();
  }
  void Log(int tag) { log_.emplace_back(sim.now(), tag); }

 private:
  SpinMode mode_;
  std::vector<std::pair<Tick, int>> log_;
};

// Runs `scenario` in both modes and checks the traces and event counts.
template <typename Scenario>
std::vector<std::pair<Tick, int>> ExpectSameAsDelayLoop(Scenario&& scenario) {
  SpinWorld delay_world(SpinMode::kDelay);
  scenario(delay_world);
  SpinWorld::Result delay = delay_world.Finish();
  SpinWorld watch_world(SpinMode::kWatch);
  scenario(watch_world);
  SpinWorld::Result watch = watch_world.Finish();
  EXPECT_EQ(watch.log, delay.log) << "WaitChange diverged from the Delay loop";
  EXPECT_EQ(delay.watch_steps, 0u);
  EXPECT_EQ(watch.events + watch.watch_steps, delay.events);
  return watch.log;
}

using Trace = std::vector<std::pair<Tick, int>>;

TEST(WaitChangeTest, WriteOnAPhaseTickBeforeThePhantomWakesThatPhase) {
  // The write is scheduled before the spinner suspends, so at t=10 it
  // sorts before the poll phase the spinner filed at t=0: that phase
  // already sees the new value.
  const Trace log = ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.WriteAt(10, 0, 1, /*tag=*/1);
    w.sim.Spawn(w.Spin(0, 1, 10, /*tag=*/2));
  });
  EXPECT_EQ(log, (Trace{{10, 1}, {10, 2}}));
}

TEST(WaitChangeTest, WriteOnAPhaseTickAfterThePhantomWaitsAPeriod) {
  // Scheduled after the spinner suspended: the t=10 phase polls first,
  // sees the old value, and the spinner only leaves at t=20.
  const Trace log = ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.sim.Spawn(w.Spin(0, 1, 10, /*tag=*/2));
    w.sim.Post([&w] { w.WriteAt(10, 0, 1, /*tag=*/1); });
  });
  EXPECT_EQ(log, (Trace{{10, 1}, {20, 2}}));
}

TEST(WaitChangeTest, WriteAndWriteBackBetweenPhasesDoNotWake) {
  const Trace log = ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.sim.Spawn(w.Spin(0, 1, 10, /*tag=*/4));
    w.WriteAt(13, 0, 1, /*tag=*/1);
    w.WriteAt(17, 0, 0, /*tag=*/2);  // back before the t=20 phase
    w.WriteAt(25, 0, 1, /*tag=*/3);
  });
  EXPECT_EQ(log, (Trace{{13, 1}, {17, 2}, {25, 3}, {30, 4}}));
}

TEST(WaitChangeTest, EventsOnePeriodBeforeAPhaseKeepTheirOrder) {
  // Events scheduled at a phase instant, one period before the next
  // phase: the ones dispatched before the phase rotates get smaller seqs
  // than the next phase, the ones scheduled by later same-tick events get
  // larger ones, exactly as with the Delay loop.
  ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.sim.Spawn(w.Spin(0, 1, 5, /*tag=*/9));
    w.sim.At(5, [&w] { w.WriteAt(10, 0, 1, /*tag=*/1); });
    w.sim.At(5, [&w] {
      w.sim.Post([&w] { w.WriteAt(10, 0, 1, /*tag=*/2); });
    });
  });
}

TEST(WaitChangeTest, SeveralWaitersShareOneLane) {
  const Trace log = ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.sim.Spawn(w.Spin(0, 1, 4, /*tag=*/1));
    w.sim.At(1, [&w] { w.sim.Spawn(w.Spin(0, 1, 4, /*tag=*/2)); });
    w.sim.At(3, [&w] { w.sim.Spawn(w.Spin(0, 1, 4, /*tag=*/3)); });
    w.sim.At(4, [&w] { w.sim.Spawn(w.Spin(0, 1, 4, /*tag=*/4)); });
    w.WriteAt(9, 0, 1, /*tag=*/5);
  });
  // Spinner 2 polls at 9 after the write (filed earlier); at t=12 the
  // lane holds spinners 1 and 4 in the order they re-filed at t=8.
  EXPECT_EQ(log, (Trace{{9, 5}, {9, 2}, {11, 3}, {12, 1}, {12, 4}}));
}

TEST(WaitChangeTest, TwoPeriodsAtOnce) {
  const Trace log = ExpectSameAsDelayLoop([](SpinWorld& w) {
    w.sim.Spawn(w.Spin(0, 1, 3, /*tag=*/1));
    w.sim.Spawn(w.Spin(0, 1, 5, /*tag=*/2));
    w.sim.Spawn(w.Spin(1, 7, 5, /*tag=*/3));
    w.WriteAt(14, 0, 1, /*tag=*/4);
    w.WriteAt(15, 1, 7, /*tag=*/5);
  });
  // At t=15 the write (filed at set-up) comes first, then the 5-tick
  // lane's phases (filed at t=10), then the 3-tick lane's (filed at 12).
  EXPECT_EQ(log, (Trace{{14, 4}, {15, 5}, {15, 2}, {15, 3}, {15, 1}}));
}

// Randomized schedules: spinners with two periods on shared words, some
// re-arming with a new target and writing a neighbour's word when they
// exit, and writer chains whose delays favour exact phase multiples and
// same-tick bursts. Every decision is a pure function of (seed, id), so
// the two modes unfold identically exactly as long as they dispatch in
// the same order.
class RandomSpinWorld : public SpinWorld {
 public:
  RandomSpinWorld(SpinMode mode, std::uint64_t seed)
      : SpinWorld(mode), seed_(seed) {}

  void Build() {
    Rng rng(seed_);
    for (int i = 0; i < 6; ++i) {
      const Tick start = static_cast<Tick>(rng.UniformU64(8));
      const Tick period = kPeriods[rng.UniformU64(2)];
      const int word = static_cast<int>(rng.UniformU64(4));
      sim.At(start, [this, i, period, word] {
        sim.Spawn(Spinner(i, word, period));
      });
    }
    for (int i = 0; i < 4; ++i) ScheduleWrite(static_cast<Tick>(rng.UniformU64(6)));
    sim.At(kStopAt, [this] {
      stopped_ = true;
      for (std::uint32_t& word : words) word = kStopWord;
    });
  }

 private:
  static constexpr Tick kPeriods[2] = {3, 5};
  static constexpr Tick kStopAt = 300;
  static constexpr int kMaxWrites = 400;

  std::uint64_t Draw(std::uint64_t id, std::uint64_t salt) const {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + id * 31 + salt);
    return rng.NextU64();
  }

  Process Spinner(int id, int word, Tick period) {
    for (std::uint64_t round = 0; round < 12; ++round) {
      const auto key = static_cast<std::uint64_t>(id) * 100 + round;
      const auto want = static_cast<std::uint32_t>(Draw(key, 1) % 3);
      co_await SpinUntil(word, want, period);
      if (words[word] == kStopWord) break;
      Log(1000 + id);
      if (Draw(key, 2) % 2 == 0) {
        words[(word + 1) % 4] = static_cast<std::uint32_t>(Draw(key, 3) % 3);
      }
    }
  }

  void ScheduleWrite(Tick delay) {
    if (stopped_ || next_write_ >= kMaxWrites) return;
    const int id = next_write_++;
    sim.At(sim.now() + delay, [this, id] {
      if (stopped_) return;
      const auto uid = static_cast<std::uint64_t>(id);
      words[Draw(uid, 4) % 4] = static_cast<std::uint32_t>(Draw(uid, 5) % 3);
      Log(id);
      static constexpr Tick kDelays[] = {0, 0, 1, 2, 3, 5, 6, 9, 10, 15};
      // One child, occasionally two: every chain lives until kMaxWrites.
      const std::uint64_t children = Draw(uid, 6) % 8 == 0 ? 2 : 1;
      for (std::uint64_t c = 0; c < children; ++c) {
        ScheduleWrite(kDelays[Draw(uid, 7 + c) % std::size(kDelays)]);
      }
    });
  }

  std::uint64_t seed_;
  int next_write_ = 0;
  bool stopped_ = false;
};

void ExpectRandomSpinsMatch(std::uint64_t seed) {
  RandomSpinWorld delay_world(SpinMode::kDelay, seed);
  delay_world.Build();
  SpinWorld::Result delay = delay_world.Finish();
  RandomSpinWorld watch_world(SpinMode::kWatch, seed);
  watch_world.Build();
  SpinWorld::Result watch = watch_world.Finish();
  ASSERT_GT(delay.log.size(), 20u) << "seed " << seed << " generated no work";
  EXPECT_EQ(watch.log, delay.log) << "seed " << seed;
  EXPECT_EQ(watch.events + watch.watch_steps, delay.events) << "seed " << seed;
  EXPECT_GT(watch.watch_steps, 0u) << "seed " << seed;
}

TEST(WaitChangeTest, MatchesDelayLoopOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) ExpectRandomSpinsMatch(seed);
}

TEST(WaitChangeTest, RunReturnsWhenOnlyUnchangedWatchersRemain) {
  // A Delay loop here would spin forever; the watched run ends instead,
  // and a word changed between runs wakes its watcher at its next phase.
  SpinWorld w(SpinMode::kWatch);
  w.sim.Spawn(w.Spin(0, 1, 10, /*tag=*/1));
  w.sim.Run();
  EXPECT_FALSE(w.sim.empty());
  EXPECT_EQ(w.sim.now(), 0);
  EXPECT_EQ(w.sim.next_event_time(), 10);
  w.words[0] = 1;
  SpinWorld::Result r = w.Finish();
  EXPECT_EQ(r.log, (Trace{{10, 1}}));
}

}  // namespace
}  // namespace vmmc::sim
