#include "vmmc/sim/simulator.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "vmmc/util/log.h"

namespace vmmc::sim {

// The most recently constructed simulator provides the log timestamp
// context; nested/concurrent simulators in one process (tests) simply
// hand it back when they go away.
Simulator::Simulator() {
  spawned_.prev = spawned_.next = &spawned_;
  SetLogSimClock(&now_);
}

namespace {

// Pool blocks outlive individual Simulators: short-lived simulators
// (benches, tests) would otherwise free megabytes of node storage on
// every teardown, which glibc trims back to the kernel and the next
// Simulator pays to fault in and zero again. The cache is process-wide
// while shard simulators run on worker threads, hence the mutex — it is
// only touched on construction/teardown/refill, never per event.
std::mutex& BlockCacheMutex() {
  static std::mutex m;
  return m;
}
std::vector<std::unique_ptr<unsigned char[]>>& BlockCache() {
  static std::vector<std::unique_ptr<unsigned char[]>> cache;
  return cache;
}
constexpr std::size_t kBlockCacheMax = 64;  // ~5 MB of retained blocks

}  // namespace

Simulator::~Simulator() {
  if (GetLogSimClock() == &now_) SetLogSimClock(nullptr);
  Shutdown();
  // Node memory is raw pool storage (nodes are placement-new'd and never
  // individually destroyed), recycled with the blocks.
  std::lock_guard<std::mutex> lock(BlockCacheMutex());
  auto& cache = BlockCache();
  for (auto& block : pool_blocks_) {
    if (cache.size() >= kBlockCacheMax) break;
    cache.push_back(std::move(block));
  }
}

void Simulator::Shutdown() {
  const bool outer_teardown = std::exchange(detail::tearing_down, true);
  // Newest first. Frames go before the queue so that anything their
  // destructors schedule is discarded with it.
  while (spawned_.next != &spawned_) {
    auto& promise = static_cast<Process::promise_type&>(*spawned_.next);
    promise.Unlink();
    Process::Handle::from_promise(promise).destroy();
  }
  // Only callback nodes hold captures; every node goes back to the pool.
  auto drop = [this](EventNode* n) {
    n->fn.Reset();
    FreeNode(n);
  };
  auto drop_chain = [&drop](EventNode*& head, EventNode*& tail) {
    while (head != nullptr) {
      EventNode* next = head->next;
      drop(head);
      head = next;
    }
    tail = nullptr;
  };
  for (const HeapSlot& s : heap_) drop(s.node);
  heap_.clear();
  drop_chain(fifo_head_, fifo_tail_);
  drop_chain(tail_head_, tail_tail_);
  for (PollLane& lane : lanes_) drop_chain(lane.head, lane.tail);
  watching_ = 0;
  detail::tearing_down = outer_teardown;
}

void Simulator::BindShard(ParallelEngine* engine, int shard_id) {
  engine_ = engine;
  shard_id_ = shard_id;
  // now_ must not feed the process-global log clock once other shards can
  // advance concurrently on other threads.
  if (GetLogSimClock() == &now_) SetLogSimClock(nullptr);
}

void Simulator::RefillPool() {
  std::unique_lock<std::mutex> lock(BlockCacheMutex());
  auto& cache = BlockCache();
  if (!cache.empty()) {
    pool_blocks_.push_back(std::move(cache.back()));
    cache.pop_back();
  } else {
    lock.unlock();
    // for_overwrite: the block is raw storage for placement-new'd nodes;
    // value-initializing it would memset the whole block for nothing.
    pool_blocks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
        kPoolBlockNodes * sizeof(EventNode)));
  }
  wilderness_ = reinterpret_cast<EventNode*>(pool_blocks_.back().get());
  wilderness_end_ = wilderness_ + kPoolBlockNodes;
}

void Simulator::Spawn(Process p) {
  assert(p.valid());
  // A Process suspends at its initial suspend point and only runs once the
  // queue dispatches it, so it cannot have finished before being scheduled.
  assert(!p.finished());
  Process::Handle h = p.Detach();
  h.promise().LinkAfter(spawned_);
  EventNode* n = AllocNode(now_);
  n->kind = EventNode::Kind::kSpawn;
  n->coro = h.address();
  Enqueue(n);
}

Simulator::EventNode* Simulator::HeapPopTop() {
  EventNode* top = heap_.front().node;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kHeapArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (SlotBefore(heap_[c], heap_[best])) best = c;
      }
      if (!SlotBefore(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

// Global (time, seq) minimum across the four tiers. Tail, heap and the
// poll lanes hold the strictly-future pushes; on equal times their seqs
// decide. FIFO entries were allocated at now() itself, i.e. after any
// other event that has since reached time == now(), so the FIFO only wins
// when no other tier is due at the current time — this keeps the order
// bit-identical to one (time, seq) heap. Watchers are the rare case, so
// the lane merge sits in PopWatcher: a run without any pays one test.
Simulator::EventNode* Simulator::PopNext(Tick limit) {
  EventNode* c = tail_head_;
  bool from_tail = c != nullptr;
  if (!heap_.empty()) {
    const HeapSlot& top = heap_.front();
    if (c == nullptr || top.time < c->time ||
        (top.time == c->time && top.seq < c->seq)) {
      c = top.node;
      from_tail = false;
    }
  }
  if (watching_ != 0) return PopWatcher(c, from_tail, limit);
  return PopQueued(c, from_tail, limit);
}

Simulator::EventNode* Simulator::PopQueued(EventNode* c, bool from_tail,
                                           Tick limit) {
  if (fifo_head_ != nullptr && (c == nullptr || c->time != now_)) {
    EventNode* n = fifo_head_;
    fifo_head_ = n->next;
    if (fifo_head_ == nullptr) fifo_tail_ = nullptr;
    return n;
  }
  if (c == nullptr || c->time > limit) return nullptr;
  if (from_tail) {
    tail_head_ = c->next;
    if (tail_head_ == nullptr) tail_tail_ = nullptr;
    return c;
  }
  return HeapPopTop();
}

Simulator::EventNode* Simulator::PopWatcher(EventNode* c, bool from_tail,
                                            Tick limit) {
  // Rotation touches only the lanes, so `c` stays the tail/heap minimum
  // for the whole loop.
  bool wake_pending = false;
  for (;;) {
    PollLane* lane = nullptr;
    const EventNode* first = c;
    for (PollLane& l : lanes_) {
      const EventNode* h = l.head;
      if (h != nullptr && (first == nullptr || h->time < first->time ||
                           (h->time == first->time && h->seq < first->seq))) {
        first = h;
        lane = &l;
      }
    }
    if (lane == nullptr || (fifo_head_ != nullptr && first->time != now_) ||
        first->time > limit) {
      return PopQueued(c, from_tail, limit);
    }
    EventNode* w = lane->head;
    const bool changed = WordChanged(w);
    // Unbounded runs only: when nothing but watchers is queued, no code
    // can run to change a word before some watcher wakes, so if none has
    // a changed word the run is over (a Delay loop would spin forever).
    if (!changed && limit == kNoEventTime && !wake_pending &&
        fifo_head_ == nullptr && c == nullptr) {
      if (!AnyWatchedWordChanged()) return nullptr;
      wake_pending = true;
    }
    lane->head = w->next;
    if (lane->head == nullptr) lane->tail = nullptr;
    if (changed) {
      --watching_;
      return w;
    }
    // The phase the Delay loop would have dispatched, minus the dispatch:
    // the next phase gets its key exactly where the loop would allocate
    // it.
    w->time += lane->period;
    w->seq = seq_++;
    LaneAppend(*lane, w);
    watch_steps_->Inc();
  }
}

bool Simulator::AnyWatchedWordChanged() const {
  for (const PollLane& lane : lanes_) {
    for (const EventNode* n = lane.head; n != nullptr; n = n->next) {
      if (WordChanged(n)) return true;
    }
  }
  return false;
}

void Simulator::Watch(std::coroutine_handle<> h, const void* word,
                      Tick period) {
  if (word == nullptr) {
    Resume(h, period);
    return;
  }
  EventNode* n = AllocNode(now_ + period);
  n->kind = EventNode::Kind::kWatch;
  n->coro = h.address();
  n->word = word;
  std::memcpy(&n->watched, word, sizeof n->watched);
  PollLane* lane = nullptr;
  for (PollLane& l : lanes_) {
    if (l.period == period) lane = &l;
  }
  if (lane == nullptr) {
    if (watch_steps_ == nullptr) {
      watch_steps_ = &metrics_.GetCounter("sim.watch_steps");
    }
    lane = &lanes_.emplace_back(PollLane{period});
  }
  LaneAppend(*lane, n);
  ++watching_;
}

void Simulator::Dispatch(EventNode* n) {
  switch (n->kind) {
    case EventNode::Kind::kResume:
    case EventNode::Kind::kWatch:  // a watcher whose word changed
      std::coroutine_handle<>::from_address(n->coro).resume();
      break;
    case EventNode::Kind::kSpawn: {
      auto h = Process::Handle::from_address(n->coro);
      if (!h.promise().started) {
        h.promise().started = true;
        h.resume();
      }
      break;
    }
    case EventNode::Kind::kCallback:
      n->fn.Invoke();
      n->fn.Reset();
      break;
  }
  FreeNode(n);
}

bool Simulator::Step() { return StepUntil(kNoEventTime); }

bool Simulator::StepUntil(Tick limit) {
  EventNode* n = PopNext(limit);
  if (n == nullptr) return false;
  assert(n->time >= now_);
  now_ = n->time;
  ++processed_;
  Dispatch(n);
  return true;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

std::uint64_t Simulator::RunWindow(Tick end) {
  // Now-FIFO events are at now() < end, so they always run.
  std::uint64_t n = 0;
  while (StepUntil(end - 1)) ++n;
  // Advance to the window boundary even when idle. Every shard's clock
  // lands on the same boundary each iteration, so shard clocks never
  // diverge: work injected between engine runs (spawns at a shard-local
  // now()) is at a consistent global instant, and a cross-shard event
  // that respects the lookahead is never behind its receiver's clock.
  if (end > now_) now_ = end;
  return n;
}

void Simulator::RunUntilTime(Tick t) {
  assert(t >= now_);
  while (StepUntil(t)) {
  }
  now_ = t;
}

}  // namespace vmmc::sim
