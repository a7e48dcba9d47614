// Cross-LP event channels for the parallel engine (see parallel.h).
//
// A SpscChannel carries events from one shard (logical-process group) to
// another: exactly one producer thread pushes, exactly one consumer thread
// drains, so the ring needs no locks — just two atomic indices. Each slot
// is a (time, fn) pair: the absolute tick the event is due plus a movable
// type-erased closure (MovableFn) that the receiving shard re-schedules
// into its own Simulator queue.
//
// Wire format and ordering. Slots are consumed strictly FIFO, and the
// receiving shard assigns fresh local sequence numbers as it drains, so
// the effective cross-LP key is (time, channel, ring position): two
// same-tick events from different source shards order by channel id, two
// from the same source by push order. All three components are
// deterministic functions of the simulation, never of thread timing.
//
// Window commits. The conservative engine executes in lookahead-sized
// windows (iterations). A sender buffers pushes privately and publishes
// them only at the end of its iteration k via Commit(k), which stores the
// ring tail into a small per-iteration slot ring (4 deep). The receiver,
// running iteration k+1, drains exactly the events committed through
// iteration k — even if the sender has already raced ahead into iteration
// k+1 and is pushing new events. That snapshot is what makes the merge
// deterministic regardless of how far individual worker threads have
// progressed: global lockstep keeps any two shards within one iteration
// of each other, so a 4-deep commit ring can never be overwritten while
// it is still being read.
//
// Capacity is fixed (Options::channel_capacity in parallel.h). A channel
// only ever holds events committed in the last iteration or pushed in the
// current one — receivers drain every iteration — so occupancy is bounded
// by the cross-LP event rate of a single lookahead window. Overflow aborts
// with a diagnostic rather than silently blocking: blocking the producer
// mid-window could deadlock the lockstep protocol.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vmmc/sim/time.h"

namespace vmmc::sim {

// A movable, type-erased callable. The Simulator's own InlineFn (see
// simulator.h) is deliberately immovable — event nodes have stable
// addresses — but channel slots are recycled ring storage, so the closure
// must be movable out of the slot and into the receiving queue. Captures
// up to kInlineBytes live in place; larger ones fall back to a single
// heap allocation whose pointer is what actually moves.
class MovableFn {
 public:
  // 72 inline bytes keeps sizeof(MovableFn) == 96 == InlineFn::kInlineBytes,
  // so a drained closure re-scheduled via Simulator::At() still stores
  // inline in the event node instead of forcing the heap path.
  static constexpr std::size_t kInlineBytes = 72;

  MovableFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MovableFn>>>
  explicit MovableFn(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      relocate_ = [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy_ = [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); };
      }
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      };
      destroy_ = [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); };
    }
  }

  MovableFn(MovableFn&& other) noexcept { MoveFrom(other); }
  MovableFn& operator=(MovableFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  MovableFn(const MovableFn&) = delete;
  MovableFn& operator=(const MovableFn&) = delete;
  ~MovableFn() { Reset(); }

  void operator()() {
    assert(invoke_ != nullptr);
    invoke_(storage_);
  }
  explicit operator bool() const { return invoke_ != nullptr; }

  void Reset() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void MoveFrom(MovableFn& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    if (relocate_ != nullptr) relocate_(storage_, other.storage_);
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void* dst, void* src) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

// Fixed-capacity single-producer single-consumer ring of (time, fn)
// events with per-iteration commit points. See the file comment for the
// protocol; parallel.h owns one channel per ordered shard pair.
class SpscChannel {
 public:
  struct Slot {
    Tick time = 0;
    MovableFn fn;
  };

  explicit SpscChannel(std::size_t capacity) : ring_(RoundUpPow2(capacity)) {
    for (auto& c : committed_) c.store(0, std::memory_order_relaxed);
  }
  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  // Producer: buffer one event. Not visible to the consumer until the
  // producer's next Commit().
  template <typename F>
  void Push(Tick time, F&& fn) {
    if (tail_ - head_pub_.load(std::memory_order_acquire) >= ring_.size()) {
      std::fprintf(stderr,
                   "SpscChannel: capacity %zu exceeded in one sync window "
                   "(raise ParallelEngine::Options::channel_capacity)\n",
                   ring_.size());
      std::abort();
    }
    Slot& s = ring_[static_cast<std::size_t>(tail_) & (ring_.size() - 1)];
    s.time = time;
    s.fn = MovableFn(std::forward<F>(fn));
    ++tail_;
  }

  // Producer: true while pushes since the last Commit() are unpublished.
  bool has_uncommitted() const { return tail_ != tail_committed_; }

  // Producer: publish everything pushed through iteration `iter`. The
  // engine commits only channels that were pushed to, so the slot of an
  // idle iteration keeps an older commit point, which the consumer has
  // already drained past; Drain reads such a slot as nothing new.
  void Commit(std::uint64_t iter) {
    committed_[iter & 3].store(tail_, std::memory_order_release);
    tail_committed_ = tail_;
  }

  // Consumer: drain every event committed at iteration `iter`, FIFO.
  // `sink(time, fn)` receives the slot contents; `fn` is an rvalue
  // MovableFn to move from. Returns the number of events drained.
  template <typename Sink>
  std::size_t Drain(std::uint64_t iter, Sink&& sink) {
    const std::uint64_t limit = committed_[iter & 3].load(std::memory_order_acquire);
    std::size_t n = 0;
    while (head_ < limit) {
      Slot& s = ring_[static_cast<std::size_t>(head_) & (ring_.size() - 1)];
      sink(s.time, std::move(s.fn));
      s.fn.Reset();
      ++head_;
      ++n;
    }
    if (n != 0) head_pub_.store(head_, std::memory_order_release);
    return n;
  }

  std::uint64_t pushed() const { return tail_; }

 private:
  static std::size_t RoundUpPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<Slot> ring_;
  // Producer-private tail; published through the commit ring only.
  std::uint64_t tail_ = 0;
  // Producer-private: the tail the last Commit() published.
  std::uint64_t tail_committed_ = 0;
  // Consumer-private head; published for the producer's capacity check.
  std::uint64_t head_ = 0;
  alignas(64) std::atomic<std::uint64_t> committed_[4];
  alignas(64) std::atomic<std::uint64_t> head_pub_{0};
};

}  // namespace vmmc::sim
