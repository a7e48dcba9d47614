#include "vmmc/sim/parallel.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace vmmc::sim {

namespace {

// Bounded spin before yielding: workers usually meet within a few dozen
// loads when windows are short; oversubscribed configurations (more
// workers than cores, e.g. the TSan suite on a small machine) fall back
// to the scheduler instead of burning a timeslice.
inline void BackoffPause(int& spins) {
  if (++spins < 256) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
    spins = 0;
  }
}

}  // namespace

ParallelEngine::ParallelEngine(Tick lookahead)
    : ParallelEngine(lookahead, Options{}) {}

ParallelEngine::ParallelEngine(Tick lookahead, Options options)
    : lookahead_(lookahead), options_(options) {
  assert(lookahead_ > 0 && "conservative sync needs a positive lookahead");
}

ParallelEngine::~ParallelEngine() = default;

int ParallelEngine::AddShard() {
  assert(!finalized_ && "AddShard after the first Run* call");
  auto shard = std::make_unique<Shard>();
  shard->sim = std::make_unique<Simulator>();
  const int id = num_shards();
  shard->sim->BindShard(this, id);
  shard->next_time.store(kNoEvent, std::memory_order_relaxed);
  shards_.push_back(std::move(shard));
  return id;
}

void ParallelEngine::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  const auto n = static_cast<std::size_t>(num_shards());
  channels_.resize(n * n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      channels_[from * n + to] =
          std::make_unique<SpscChannel>(options_.channel_capacity);
    }
  }
  for (auto& shard : shards_) {
    for (auto& bank : shard->inbox) {
      bank = std::make_unique<std::atomic<std::uint64_t>[]>(InboxWords());
      for (std::size_t w = 0; w < InboxWords(); ++w) {
        bank[w].store(0, std::memory_order_relaxed);
      }
    }
  }
}

int ParallelEngine::WorkerCount() const {
  int w = options_.workers > 0 ? options_.workers : num_shards();
  return std::clamp(w, 1, std::max(1, num_shards()));
}

void ParallelEngine::DrainShard(int shard, std::uint64_t iter) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  Simulator& sim = *sh.sim;
  const auto n = static_cast<std::size_t>(num_shards());
  std::atomic<std::uint64_t>* inbox = sh.inbox[iter & 1].get();
  // Flagged sources in ascending shard order: the same (time, source
  // shard, push order) merge as visiting every channel.
  for (std::size_t w = 0; w < InboxWords(); ++w) {
    std::uint64_t from_bits = inbox[w].exchange(0, std::memory_order_relaxed);
    while (from_bits != 0) {
      const std::size_t from =
          w * 64 + static_cast<std::size_t>(std::countr_zero(from_bits));
      from_bits &= from_bits - 1;
      SpscChannel& ch = *channels_[from * n + static_cast<std::size_t>(shard)];
      ch.Drain(iter, [&sim](Tick t, MovableFn&& fn) {
        // Zero-lookahead edges (stall notices, Ethernet handoffs) may
        // carry a time the receiver has already passed; clamp
        // deterministically to its current instant. Lookahead-respecting
        // events (t in a future window) are never clamped.
        sim.At(std::max(t, sim.now()), [f = std::move(fn)]() mutable { f(); });
      });
    }
  }
}

void ParallelEngine::CommitShard(int shard, std::uint64_t iter) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const auto from = static_cast<std::size_t>(shard);
  for (const int to : sh.dirty_out) {
    ChannelTo(shard, to).Commit(iter);
    // Relaxed: the receiver reads its inbox after the exec barrier, whose
    // release store follows this commit.
    shards_[static_cast<std::size_t>(to)]->inbox[iter & 1][from / 64].fetch_or(
        std::uint64_t{1} << (from % 64), std::memory_order_relaxed);
  }
  sh.dirty_out.clear();
}

void ParallelEngine::WorkerLoop(int worker, int num_workers,
                                const std::function<bool()>* pred) {
  const int n = num_shards();
  for (std::uint64_t k = next_iter_;; ++k) {
    // 1. Wait: every shard finished executing iteration k-1. This scan is
    // the lower-bound-on-timestamp computation — once it passes, every
    // cross-LP event due before this window is committed in a channel.
    for (int s = 0; s < n; ++s) {
      auto& done = shards_[static_cast<std::size_t>(s)]->exec_done;
      int spins = 0;
      while (done.load(std::memory_order_acquire) < k - 1) BackoffPause(spins);
    }
    // Worker 0 decides about the caller's predicate at this boundary;
    // every shard is paused between windows, so the predicate sees a
    // cross-shard-consistent state.
    if (worker == 0) {
      const bool stop = pred != nullptr && (*pred)();
      if (stop) pred_satisfied_ = true;
      stop_iter_.store(stop ? k : 0, std::memory_order_relaxed);
    }

    // 2+3. Drain iteration k-1's channel commits into the local queues,
    // then publish this shard's next event time.
    for (int s = worker; s < n; s += num_workers) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      DrainShard(s, k - 1);
      sh.next_time.store(sh.sim->next_event_time(), std::memory_order_relaxed);
      sh.drain_done.store(k, std::memory_order_release);
    }
    Tick m = kNoEvent;
    for (int s = 0; s < n; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      int spins = 0;
      while (sh.drain_done.load(std::memory_order_acquire) < k) BackoffPause(spins);
      m = std::min(m, sh.next_time.load(std::memory_order_relaxed));
    }
    // All workers read identical published values, so they all take the
    // same branch — no extra agreement round needed.
    if (stop_iter_.load(std::memory_order_relaxed) == k) {
      if (worker == 0) next_iter_ = k;
      return;
    }
    if (m == kNoEvent) {
      if (worker == 0) next_iter_ = k;
      return;
    }

    // 4. Execute the window that contains the globally earliest event
    // (skipping any number of empty windows), then commit outgoing
    // channels for this iteration.
    const Tick end = (m / lookahead_ + 1) * lookahead_;
    for (int s = worker; s < n; s += num_workers) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      sh.sim->RunWindow(end);
      CommitShard(s, k);
      sh.exec_done.store(k, std::memory_order_release);
    }
  }
}

std::uint64_t ParallelEngine::RunImpl(const std::function<bool()>* pred) {
  Finalize();
  const std::uint64_t before = events_processed();
  pred_satisfied_ = false;
  stop_iter_.store(0, std::memory_order_relaxed);
  // Anything pushed between runs (cluster assembly, test harnesses run
  // on the caller's thread) becomes visible at the first drain.
  for (int s = 0; s < num_shards(); ++s) CommitShard(s, next_iter_ - 1);
  // The run resumes at the iteration the last one returned from, whose
  // drain barrier every shard already passed. Rewind it, or a worker
  // would execute that iteration's window before worker 0 has evaluated
  // the predicate and re-published its shards' next-event times.
  for (auto& shard : shards_) {
    shard->drain_done.store(next_iter_ - 1, std::memory_order_relaxed);
  }

  const int workers = WorkerCount();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back([this, w, workers] { WorkerLoop(w, workers, nullptr); });
  }
  WorkerLoop(0, workers, pred);
  for (auto& t : threads) t.join();
  return events_processed() - before;
}

std::uint64_t ParallelEngine::RunUntilQuiescent() { return RunImpl(nullptr); }

bool ParallelEngine::RunUntil(std::function<bool()> pred) {
  RunImpl(&pred);
  return pred_satisfied_;
}

std::uint64_t ParallelEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim->events_processed();
  return total;
}

std::uint64_t ParallelEngine::watch_steps() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim->watch_steps();
  return total;
}

Tick ParallelEngine::now() const {
  Tick t = 0;
  for (const auto& s : shards_) t = std::max(t, s->sim->now());
  return t;
}

void ParallelEngine::MergeMetricsInto(obs::Registry& out) const {
  for (const auto& s : shards_) out.MergeFrom(s->sim->metrics());
}

}  // namespace vmmc::sim
