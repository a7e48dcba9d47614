// Synchronization primitives for simulation coroutines. All wake-ups are
// routed through the Simulator event queue at the current time, preserving
// deterministic FIFO ordering and bounding recursion depth.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "vmmc/sim/frame_pool.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::sim {

// One-shot (but resettable) broadcast event. Waiters suspend until Set().
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void Set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_.Resume(h);
    waiters_.clear();
  }

  void Reset() { set_ = false; }

  auto Wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator& sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO waiters. Semaphore(sim, 1) is a mutex and
// models exclusive resources such as a bus.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial)
      : sim_(sim), count_(initial) {
    assert(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.size(); }

  auto Acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.count_ > 0 && sem.waiters_.empty()) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // Non-blocking acquire: takes a permit if one is free and nobody is
  // queued ahead; never suspends.
  bool TryAcquire() {
    if (count_ > 0 && waiters_.empty()) {
      --count_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the oldest waiter.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.Resume(h);
    } else {
      ++count_;
    }
  }

 private:
  Simulator& sim_;
  std::int64_t count_;
  PooledDeque<std::coroutine_handle<>> waiters_;
};

// RAII permit: `auto lock = co_await ScopedAcquire(sem);`
class [[nodiscard]] SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore* sem) : sem_(sem) {}
  SemaphoreGuard(SemaphoreGuard&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  SemaphoreGuard& operator=(SemaphoreGuard&& o) noexcept {
    if (this != &o) {
      Unlock();
      sem_ = std::exchange(o.sem_, nullptr);
    }
    return *this;
  }
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  ~SemaphoreGuard() { Unlock(); }

  void Unlock() {
    if (sem_) {
      // At teardown the semaphore's owner may already be destroyed.
      if (!TearingDown()) sem_->Release();
      sem_ = nullptr;
    }
  }

 private:
  Semaphore* sem_;
};

// Acquires the semaphore and returns a guard that releases it on scope exit.
inline auto ScopedAcquire(Semaphore& sem) {
  struct Awaiter {
    Semaphore& sem;
    decltype(sem.Acquire()) inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    SemaphoreGuard await_resume() { return SemaphoreGuard(&sem); }
  };
  return Awaiter{sem, sem.Acquire()};
}

// Unbounded FIFO channel. Items handed to waiters never re-enter the queue,
// so a woken receiver cannot lose its item to a late arrival.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  void Put(T item) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(item));
      sim_.Resume(w->handle);
      return;
    }
    items_.push_back(std::move(item));
  }

  // Awaitable receive; resolves to the next item in FIFO order.
  auto Get() {
    struct Awaiter {
      Mailbox& box;
      Waiter self{};
      bool await_ready() const noexcept {
        return !box.items_.empty() && box.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        self.handle = h;
        box.waiters_.push_back(&self);
      }
      T await_resume() {
        if (self.slot.has_value()) return std::move(*self.slot);
        assert(!box.items_.empty());
        T item = std::move(box.items_.front());
        box.items_.pop_front();
        return item;
      }
    };
    return Awaiter{*this};
  }

  // Non-blocking receive.
  std::optional<T> TryGet() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> slot;
  };

  Simulator& sim_;
  PooledDeque<T> items_;
  PooledDeque<Waiter*> waiters_;
};

}  // namespace vmmc::sim
