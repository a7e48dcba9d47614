// vmmc-lint fixture: R6 delay-spin — known-good.
//
// Spin-waits on a watched word, paced loops, and a justified multi-word
// poll. Run with --scope=sim.
#include <cstdint>

struct Awaitable {
  bool await_ready();
  void await_suspend(void*);
  void await_resume();
};

struct Simulator {
  Awaitable Delay(std::int64_t ticks);
  Awaitable WaitChange(const void* word, std::int64_t period);
};

struct Task {};

std::uint32_t ReadWord(std::uint64_t va);
const void* WordPtr(std::uint64_t va);
Task Send(int i);

Task WaitAcked(Simulator& sim, std::uint64_t ack, std::uint32_t seq) {
  const void* word = WordPtr(ack);
  while (ReadWord(ack) != seq) co_await sim.WaitChange(word, 1000);
}

// Counted loops pace work (a per-page cost, a send gap); they do not spin.
Task PinPages(Simulator& sim, int pages) {
  for (int i = 0; i < pages; ++i) co_await sim.Delay(300);
}

Task PacedSends(Simulator& sim, int n) {
  for (int i = 0; i < n; ++i) {
    co_await Send(i);
    co_await sim.Delay(2000);
  }
}

// A delay that is not the loop's last statement is work, not a poll wait.
Task Retransmit(Simulator& sim, bool& unacked) {
  while (unacked) {
    co_await sim.Delay(4000);
    co_await Send(0);
  }
}

Task ServeSlots(Simulator& sim, const std::uint64_t* slots, int n,
                bool& serving) {
  while (serving) {
    bool worked = false;
    for (int k = 0; k < n; ++k) worked |= ReadWord(slots[k]) != 0;
    // vmmc-lint: allow(delay-spin): polls n slots, and a wait can watch
    // only one word
    if (!worked) co_await sim.Delay(200);
  }
}
