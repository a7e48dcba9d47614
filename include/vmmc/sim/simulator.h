// Discrete-event simulation engine.
//
// The Simulator owns a time-ordered queue of callbacks. Hardware and
// software components are modelled as coroutines (see process.h) that
// suspend on awaitables whose wake-ups flow through this queue, so each
// Simulator is single-threaded and deterministic: events at equal
// times fire in scheduling order (FIFO tie-break on a sequence number).
// A run uses either one standalone Simulator for the whole system (the
// serial substrate behind every golden number in EXPERIMENTS.md) or many
// of them as shards of a sim::ParallelEngine (parallel.h), which runs
// lookahead-wide time windows on worker threads; all code modelled
// *inside* a shard stays single-threaded either way.
//
// The queue is built for wall-clock throughput (see "Event engine
// internals" in ARCHITECTURE.md): events live in pool-allocated intrusive
// nodes ordered by a d-ary heap of (time, seq) keys, events at the
// current time bypass the heap through an intrusive FIFO, coroutine
// resumption and process start are first-class event kinds carrying only
// a frame address, and callbacks store their captures inline in the node
// (InlineFn) instead of behind a std::function allocation. The dispatch
// order is bit-identical to a (time, seq)-keyed priority queue: seq is a
// single monotone counter consumed by every scheduling path, so the key
// order is total.
//
// Simulated spin-waits (a host polling a word the NIC DMAs into) get a
// fourth tier, the per-period poll lanes behind WaitChange: a watcher
// whose word has not changed is re-filed one period later inside the
// queue, without a dispatch, so spinning costs no events while keeping
// the exact (time, seq) schedule of a Delay loop.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vmmc/obs/metrics.h"
#include "vmmc/obs/trace.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/time.h"

namespace vmmc::sim {

class ParallelEngine;

namespace detail {

// A callable stored in place: captures up to kInlineBytes live inside the
// event node itself; larger ones (rare, none on the steady-state paths)
// fall back to a single heap allocation. Unlike std::function this never
// moves after construction — event nodes have stable addresses — so it
// needs no move support and accepts move-only captures.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  InlineFn() noexcept = default;
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Reset(); }

  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>);
    assert(invoke_ == nullptr && "InlineFn already holds a callable");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      // Trivially destructible captures (the common case) skip the
      // destroy indirection entirely.
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy_ = [](void* s) {
          std::launder(reinterpret_cast<Fn*>(s))->~Fn();
        };
      }
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      destroy_ = [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); };
    }
  }

  void Invoke() { invoke_(storage_); }

  void Reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      destroy_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace detail

class Simulator {
 public:
  // Sentinel returned by next_event_time() for an empty queue.
  static constexpr Tick kNoEventTime = std::numeric_limits<Tick>::max();

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }

  // Observability (see include/vmmc/obs/): every component reachable from
  // this simulator reports into one registry and one tracer, so a whole
  // run snapshots / exports from a single place.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }

  // Fault injection (see sim/fault.h): hardware models consult this on
  // their fault points; tests and benches install a FaultPlan through it.
  FaultInjector& faults() { return faults_; }

  std::uint64_t events_processed() const { return processed_; }
  // Poll phases a WaitChange watcher passed with its word unchanged. Each
  // one is an event a Delay spin loop would have dispatched, so
  // events_processed() + watch_steps() is the Delay-loop event count.
  // Also the registry counter `sim.watch_steps` (registered on the first
  // WaitChange).
  std::uint64_t watch_steps() const {
    return watch_steps_ != nullptr ? watch_steps_->value() : 0;
  }
  bool empty() const {
    return heap_.empty() && fifo_head_ == nullptr && tail_head_ == nullptr &&
           watching_ == 0;
  }

  // Schedules `fn` at absolute time `t` (must be >= now()).
  template <typename F>
  void At(Tick t, F&& fn) {
    assert(t >= now_ && "cannot schedule in the past");
    EventNode* n = AllocNode(t);
    n->kind = EventNode::Kind::kCallback;
    n->fn.Emplace(std::forward<F>(fn));
    Enqueue(n);
  }
  // Schedules `fn` after `delay` ticks (must not be negative).
  template <typename F>
  void In(Tick delay, F&& fn) {
    assert(delay >= 0 && "delays cannot be negative");
    At(now_ + delay, std::forward<F>(fn));
  }
  // Schedules `fn` at the current time, after already-queued events at now().
  template <typename F>
  void Post(F&& fn) {
    At(now_, std::forward<F>(fn));
  }

  // Resumes a coroutine through the event queue (keeps ordering FIFO and
  // avoids unbounded recursion from synchronous resumption chains). This
  // is the dominant event kind — every Delay/Event/Semaphore/Mailbox
  // wake-up lands here — so it stores only the frame address: no closure,
  // no allocation.
  void Resume(std::coroutine_handle<> h, Tick delay = 0) {
    assert(delay >= 0 && "delays cannot be negative");
    EventNode* n = AllocNode(now_ + delay);
    n->kind = EventNode::Kind::kResume;
    n->coro = h.address();
    Enqueue(n);
  }

  // Starts a detached coroutine at the current time. The coroutine frame
  // frees itself on completion; the simulator owns it until then, and
  // Shutdown() destroys it if it never completes.
  void Spawn(Process p);

  // Ends the simulation: destroys every spawned frame that has not
  // completed, with the Process/Task children it awaits, then discards
  // every queued event. The destructor does this too; call it earlier
  // while the components those frames point into are still alive (a
  // Cluster does, from its destructor), so frame-local destructors such
  // as an Endpoint's still find their NIC. Frame-local RAII sees
  // TearingDown() == true throughout. The simulator is empty afterwards.
  void Shutdown();

  // Runs one event. Returns false if the queue is empty.
  bool Step();

  // Runs until the queue drains or `max_events` fire. Returns events run.
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX);

  // Runs all events with time <= t; leaves now() == t.
  void RunUntilTime(Tick t);

  // --- parallel-engine hooks (see sim/parallel.h) ---

  // Marks this simulator as shard `shard_id` of `engine`. Called by
  // ParallelEngine::AddShard. Detaches the simulator from the global log
  // clock: with several shards advancing concurrently there is no single
  // "current" sim time for log lines to stamp.
  void BindShard(ParallelEngine* engine, int shard_id);
  // The owning engine, or nullptr for a standalone simulator. Components
  // use this to route cross-shard events through PostRemote instead of At.
  ParallelEngine* engine() const { return engine_; }
  int shard_id() const { return shard_id_; }

  // Time of the earliest queued event, or Tick max if the queue is empty.
  // The parallel engine's window-selection scan; O(1) plus one look per
  // poll lane. A lane head counts as an event: it is the next instant a
  // watcher polls, and the poll may find its word changed.
  Tick next_event_time() const {
    Tick t = fifo_head_ != nullptr ? now_ : kNoEventTime;
    if (tail_head_ != nullptr) t = std::min(t, tail_head_->time);
    if (!heap_.empty()) t = std::min(t, heap_.front().time);
    for (const PollLane& lane : lanes_) {
      if (lane.head != nullptr) t = std::min(t, lane.head->time);
    }
    return t;
  }

  // Runs all events with time < end, strictly, then parks now() on the
  // window edge (like RunUntilTime, but exclusive of `end`). Parking is
  // what keeps every shard's clock identical between engine iterations:
  // work injected at one shard's now() between runs is at a globally
  // consistent instant, and a lookahead-respecting cross-shard event can
  // never arrive behind its receiver's clock. Returns the number of
  // events dispatched.
  std::uint64_t RunWindow(Tick end);

  // Runs until pred() is true (checked after every event). Returns true if
  // the predicate was satisfied, false if the queue drained first.
  template <typename Pred>
  bool RunUntil(Pred&& pred, std::uint64_t max_events = UINT64_MAX) {
    while (!pred()) {
      if (max_events-- == 0) return false;
      if (!Step()) return false;
    }
    return true;
  }

  // Awaitable: suspends the calling coroutine for `delay` ticks.
  // `co_await sim.Delay(0)` yields through the event queue (fair handoff).
  [[nodiscard]] auto Delay(Tick delay) {
    struct Awaiter {
      Simulator& sim;
      Tick delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.Resume(h, delay); }
      void await_resume() const noexcept {}
    };
    assert(delay >= 0);
    return Awaiter{*this, delay};
  }

  // Awaitable: exactly `while (unchanged) co_await Delay(period);` where
  // "unchanged" means the 4 bytes at `word` still hold the value they had
  // at suspension. The calling coroutine resumes at the first poll phase
  // (suspension time + k * period) at which the word differs, with the
  // (time, seq) key the Delay loop's event for that phase would have had,
  // so every simulated result is bit-identical; the phases in between are
  // counted in watch_steps() instead of being dispatched. Typical use is
  // the spin on a word the NIC DMAs into:
  //   while (Read(flag) != want) co_await sim.WaitChange(ptr, poll);
  // `word` must stay valid (its buffer allocated) for the whole wait. A
  // null `word` — a location the caller cannot watch directly — degrades
  // to Delay(period).
  auto WaitChange(const void* word, Tick period) {
    struct Awaiter {
      Simulator& sim;
      const void* word;
      Tick period;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Watch(h, word, period);
      }
      void await_resume() const noexcept {}
    };
    assert(period > 0 && "a poll period must be positive");
    return Awaiter{*this, word, period};
  }

 private:
  // One scheduled event. Nodes are pool-allocated and recycled through an
  // intrusive free list; `next` doubles as the now-FIFO chain link.
  // Field order is deliberate: everything the kResume/kSpawn dispatch path
  // reads (time, seq, next, coro, kind) sits in the node's first cache
  // line; the callback capture area comes last.
  struct EventNode {
    enum class Kind : std::uint8_t { kCallback, kResume, kSpawn, kWatch };
    Tick time = 0;
    std::uint64_t seq = 0;
    EventNode* next = nullptr;  // free-list / now-FIFO / lane link
    void* coro = nullptr;       // kResume / kSpawn / kWatch: frame address
    Kind kind = Kind::kCallback;
    std::uint32_t watched = 0;     // kWatch: word value at suspension
    const void* word = nullptr;    // kWatch: the watched 4-byte word
    detail::InlineFn fn;           // kCallback only
  };

  // One poll lane: the kWatch nodes of one period, sorted by (time, seq).
  // A node is filed at now() + period with a fresh seq, and every node
  // already in the lane was filed at most one period earlier, so appending
  // keeps the lane sorted without any search.
  struct PollLane {
    Tick period;
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  // Heap entries carry the full (time, seq) key next to the node pointer:
  // sift comparisons stay inside the contiguous heap array and never
  // chase node pointers (time ties — bursts of same-tick wake-ups — are
  // the common case on the hot path).
  struct HeapSlot {
    Tick time;
    std::uint64_t seq;
    EventNode* node;
  };
  static bool SlotBefore(const HeapSlot& a, const HeapSlot& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // seq is unique: no further tie
  }

  EventNode* AllocNode(Tick t) {
    EventNode* n = free_nodes_;
    if (n != nullptr) {
      free_nodes_ = n->next;
    } else {
      if (wilderness_ == wilderness_end_) RefillPool();
      n = ::new (static_cast<void*>(wilderness_)) EventNode;
      ++wilderness_;
    }
    n->time = t;
    n->seq = seq_++;
    return n;
  }
  void FreeNode(EventNode* n) {
    n->next = free_nodes_;
    free_nodes_ = n;
  }
  void RefillPool();

  // Three queue tiers, cheapest first. Events at exactly now() append to
  // an intrusive FIFO. Future events whose (time, seq) key is >= the last
  // event of the sorted tail list append there in O(1) — simulations
  // overwhelmingly schedule in increasing time order, so this absorbs the
  // heap traffic. Only out-of-order future pushes fall through to the
  // 4-ary heap. PopNext takes the global (time, seq) minimum of these
  // three tiers and the poll lanes, so dispatch order is identical to a
  // single priority queue.
  void Enqueue(EventNode* n) {
    if (n->time == now_) {
      n->next = nullptr;
      if (fifo_tail_ != nullptr) {
        fifo_tail_->next = n;
      } else {
        fifo_head_ = n;
      }
      fifo_tail_ = n;
      return;
    }
    // seq is monotone and tail_tail_ was allocated earlier, so on equal
    // times n still sorts after it — time comparison alone suffices.
    if (tail_tail_ == nullptr || n->time >= tail_tail_->time) {
      n->next = nullptr;
      if (tail_tail_ != nullptr) {
        tail_tail_->next = n;
      } else {
        tail_head_ = n;
      }
      tail_tail_ = n;
      return;
    }
    HeapPush(n);
  }

  static constexpr std::size_t kHeapArity = 4;

  void HeapPush(EventNode* n) {
    const HeapSlot slot{n->time, n->seq, n};
    std::size_t i = heap_.size();
    heap_.push_back(slot);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!SlotBefore(slot, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = slot;
  }

  EventNode* HeapPopTop();
  // Pops the (time, seq)-minimum event if its time is <= limit, rotating
  // due watchers whose word is unchanged on the way; nullptr if nothing
  // dispatchable is due. `limit` is never below now().
  EventNode* PopNext(Tick limit);
  // PopNext's two halves, given `c`, the tail/heap minimum (or nullptr).
  // PopQueued pops from the FIFO, tail and heap tiers alone. PopWatcher,
  // called only while watchers exist, first rotates every due unchanged
  // watcher that precedes the next queued event, then pops the first one
  // whose word changed, or else defers to PopQueued.
  EventNode* PopQueued(EventNode* c, bool from_tail, Tick limit);
  EventNode* PopWatcher(EventNode* c, bool from_tail, Tick limit);
  // Step() bounded by `limit` (see PopNext).
  bool StepUntil(Tick limit);
  void Dispatch(EventNode* n);

  void Watch(std::coroutine_handle<> h, const void* word, Tick period);
  static bool WordChanged(const EventNode* n) {
    std::uint32_t v;
    std::memcpy(&v, n->word, sizeof v);
    return v != n->watched;
  }
  static void LaneAppend(PollLane& lane, EventNode* n) {
    n->next = nullptr;
    if (lane.tail != nullptr) {
      lane.tail->next = n;
    } else {
      lane.head = n;
    }
    lane.tail = n;
  }
  bool AnyWatchedWordChanged() const;

  // The members every dispatch reads or writes come first, in 112 bytes
  // (two cache lines); the poll lanes and the pool's block list, touched
  // only by watchers and refills, follow them.
  std::vector<HeapSlot> heap_;        // out-of-order future events, 4-ary min-heap
  EventNode* fifo_head_ = nullptr;    // events at now(), FIFO order
  EventNode* fifo_tail_ = nullptr;
  EventNode* tail_head_ = nullptr;    // future events, sorted by (time, seq)
  EventNode* tail_tail_ = nullptr;
  std::uint64_t watching_ = 0;        // kWatch nodes across all lanes
  EventNode* free_nodes_ = nullptr;   // recycled nodes
  EventNode* wilderness_ = nullptr;   // unconstructed tail of newest block
  EventNode* wilderness_end_ = nullptr;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<PollLane> lanes_;       // one per WaitChange period
  obs::Counter* watch_steps_ = nullptr;  // "sim.watch_steps"
  // Fixed-size blocks: 512 nodes keeps a block under glibc's 128 KB mmap
  // threshold, so freed blocks are recycled by the allocator instead of
  // being returned to (and re-zeroed by) the kernel.
  static constexpr std::size_t kPoolBlockNodes = 512;
  std::vector<std::unique_ptr<unsigned char[]>> pool_blocks_;
  ParallelEngine* engine_ = nullptr;  // owning engine when sharded
  int shard_id_ = -1;
  // Spawned frames not yet complete: circular list through their
  // promises, this node the sentinel. Kept behind the dispatch-path
  // members: Spawn and completion touch it, dispatch does not.
  detail::SpawnLink spawned_;
  obs::Registry metrics_;
  obs::Tracer tracer_{&now_};
  FaultInjector faults_{&now_, &metrics_};
};

}  // namespace vmmc::sim
