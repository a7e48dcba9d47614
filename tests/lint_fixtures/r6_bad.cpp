// vmmc-lint fixture: R6 delay-spin — known-bad.
//
// Simulated spin-waits written as Delay loops: every poll is a dispatched
// event even though nothing but one watched word can end the wait. Run
// with --scope=sim.
#include <cstdint>

struct Awaitable {
  bool await_ready();
  void await_suspend(void*);
  void await_resume();
};

struct Simulator {
  Awaitable Delay(std::int64_t ticks);
};

struct Task {};

std::uint32_t ReadWord(std::uint64_t va);

Task WaitAcked(Simulator& sim, std::uint64_t ack, std::uint32_t seq) {
  while (ReadWord(ack) != seq) co_await sim.Delay(1000);  // EXPECT-LINT: R6
}

Task WaitBraced(Simulator& sim, const int& pending) {
  while (pending > 0) {
    co_await sim.Delay(500);  // EXPECT-LINT: R6
  }
}

Task WaitFin(Simulator* sim, std::uint64_t fin, std::uint32_t op) {
  for (;;) {
    const std::uint32_t word = ReadWord(fin);
    if (word == op) break;
    co_await sim->Delay(1000);  // EXPECT-LINT: R6
  }
}

Task ServeUntilIdle(Simulator& sim, std::uint64_t slot, bool& serving) {
  while (serving) {
    const bool worked = ReadWord(slot) != 0;
    if (!worked) co_await sim.Delay(200);  // EXPECT-LINT: R6
  }
}
