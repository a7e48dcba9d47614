// Recycling allocator for coroutine frames and per-message queues.
//
// Every `co_await child()` of a Process or Task<T> creates a frame, and
// the API, LCP and collective layers await such children on every
// message. Served by the global heap that is one malloc/free pair per
// call; this pool recycles frames through per-size-class free lists
// instead, so a warmed simulation creates and destroys frames without
// touching the heap (perf_guard_test pins this down). The FIFO queues a
// message passes through (Mailbox, switch ports, the LCP's send and
// retransmit queues) are PooledDeques: std::deque allocates and frees a
// chunk whenever its contents cross a chunk boundary, and those chunks
// recycle through the same lists.
//
// The rules are util::Buffer's (util/buffer.h): the free lists are
// thread-local, so a shard worker thread (sim/parallel.h) allocates and
// frees without a lock, and a frame freed on another thread than the one
// that allocated it simply joins the freeing thread's lists. Frames
// larger than the largest class go straight to the heap.
//
// Under AddressSanitizer (a compile-time property of the build, not a
// knob) every frame goes straight to the heap and back, so a frame used
// after its coroutine was destroyed is still reported as a
// heap-use-after-free instead of silently aliasing a recycled frame.
#pragma once

#include <cstddef>
#include <deque>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define VMMC_FRAME_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VMMC_FRAME_POOL_PASSTHROUGH 1
#endif
#endif

namespace vmmc::sim::detail {

class FramePool {
 public:
  static void* Allocate(std::size_t n) {
#ifndef VMMC_FRAME_POOL_PASSTHROUGH
    if (n <= kMaxPooled) {
      Lists& l = lists();
      FreeFrame*& head = l.heads[Class(n)];
      if (FreeFrame* f = head; f != nullptr) {
        head = f->next;
        return f;
      }
      return ::operator new(RoundUp(n));
    }
#endif
    return ::operator new(n);
  }

  static void Free(void* p, std::size_t n) noexcept {
#ifndef VMMC_FRAME_POOL_PASSTHROUGH
    if (n <= kMaxPooled) {
      Lists& l = lists();
      if (!l.drained) {
        FreeFrame*& head = l.heads[Class(n)];
        head = ::new (p) FreeFrame{head};
        return;
      }
      ::operator delete(p, RoundUp(n));
      return;
    }
#endif
    ::operator delete(p, n);
  }

 private:
  // Classes are 64-byte steps: frames of one coroutine always have the
  // same size, so a class wastes under 64 bytes per frame.
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooled = 16384;
  static constexpr std::size_t kNumClasses = kMaxPooled / kGranule;

  static std::size_t Class(std::size_t n) { return (n - 1) / kGranule; }
  static std::size_t RoundUp(std::size_t n) {
    return (Class(n) + 1) * kGranule;
  }

  struct FreeFrame {
    FreeFrame* next;
  };

  struct Lists {
    FreeFrame* heads[kNumClasses] = {};
    // Set once the thread's lists are torn down: a frame destroyed after
    // that (a static object's coroutine at exit) goes to the heap.
    bool drained = false;
    // Worker threads are short-lived; return their frames at exit.
    ~Lists() {
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        while (FreeFrame* f = heads[c]) {
          heads[c] = f->next;
          ::operator delete(f, (c + 1) * kGranule);
        }
      }
      drained = true;
    }
  };

  static Lists& lists() {
    thread_local Lists l;
    return l;
  }
};

// std::allocator stand-in that draws from the FramePool.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::Free(p, n * sizeof(T));
  }
  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace vmmc::sim::detail

namespace vmmc::sim {

template <typename T>
using PooledDeque = std::deque<T, detail::PoolAllocator<T>>;

}  // namespace vmmc::sim
