// Shared plumbing of the repo benchmark: workload RNG, sample summaries,
// the span log, per-layer counter snapshots and the result of one
// repetition. Workloads (allreduce64.cpp, pingpong_stream.cpp,
// rdma_kv_lossy.cpp) fill a Rep; main.cpp repeats, checks and reports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "vmmc/obs/metrics.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/time.h"
#include "vmmc/vmmc/cluster.h"

namespace perfbench {

using vmmc::sim::Tick;

// Host monotonic clock, nanoseconds.
std::int64_t HostNs();
inline double SecondsSince(std::int64_t t0) {
  return static_cast<double>(HostNs() - t0) * 1e-9;
}

// Allocations made through operator new so far (counting hook in
// bench.cpp, the perf_guard_test technique).
std::uint64_t AllocCount();
// Peak resident set of this process, MB (VmHWM).
double PeakRssMb();

// splitmix64: the only source of workload randomness, seeded from the
// command line, so one seed always generates the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(Next() % i)]);
    }
  }

 private:
  std::uint64_t s_;
};

// The generator of one workload's inputs: `seed` and a per-workload `salt`
// are hashed, so consecutive seeds give unrelated streams.
inline Rng WorkloadRng(std::uint64_t seed, std::uint64_t salt) {
  return Rng(Rng(seed ^ (salt * 0xD1B54A32D192ED03ull)).Next());
}

// Deterministic payload bytes for (stream, index): what a sender writes
// and what the checker expects to read back.
void FillPattern(std::uint64_t key, std::uint8_t* out, std::size_t len);

// Median and tail of a sample set. The tail is the highest percentile of
// a fixed ladder with at least ten samples beyond it (nearest rank).
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  // which percentile `tail` is
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

// Spans the benchmark records around its own calls into each layer, in
// host time and simulated time. `parent` is an index into the log or -1;
// spans of one operation share `op`. Off: Begin returns -1, End ignores.
// A call made from the main loop (`exclusive`) runs alone on the host; a call
// made from a simulated process suspends, and other processes run on the
// host before it returns, so only its simulated duration is its own.
struct Span {
  const char* name;
  std::uint32_t op;
  std::int32_t parent;
  bool exclusive;
  std::int64_t host_begin, host_end;
  Tick sim_begin, sim_end;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  bool on() const { return on_; }
  std::int32_t Begin(const char* name, std::uint32_t op, std::int32_t parent,
                     Tick now, bool exclusive = false) {
    if (!on_) return -1;
    spans_.push_back(Span{name, op, parent, exclusive, HostNs(), 0, now, now});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t id, Tick now) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.host_end = HostNs();
    s.sim_end = now;
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Simulated durations (us) of every span called `name`.
  std::vector<double> SimDurationsUs(const std::string& name) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Drives `sim` until `done()` or until simulated time passes `deadline`.
// Adds the host time spent inside the engine to *host_s. Returns false on
// a stall (deadline passed or event queue drained first).
template <typename Done>
bool Drive(vmmc::sim::Simulator& sim, Done&& done, Tick deadline,
           double* host_s, SpanLog* log = nullptr) {
  const std::int32_t span =
      log != nullptr ? log->Begin("sim.RunUntil", 0, -1, sim.now(), true) : -1;
  const std::int64_t t0 = HostNs();
  const bool ok =
      sim.RunUntil([&] { return done() || sim.now() > deadline; }) && done();
  if (host_s != nullptr) *host_s += SecondsSince(t0);
  if (log != nullptr) log->End(span, sim.now());
  return ok;
}

// Every registry counter the per-layer metrics read, summed over nodes /
// links / switches. Diff two snapshots to get one phase's numbers.
using Counters = std::map<std::string, double>;
Counters ReadCounters(const vmmc::obs::Registry& m, int num_nodes);
Counters Diff(const Counters& after, const Counters& before);

// One repetition of a workload: a fresh cluster, set up, warmed and then
// run through the seed's fixed operation list.
struct Rep {
  // Host side (varies run to run).
  double setup_s = 0;     // boot + endpoints/channels/communicators + warm-up
  double boot_s = 0;      // Cluster::Boot alone
  double timed_s = 0;     // the timed phase
  double engine_s = 0;    // host time inside the engine, timed phase
  std::uint64_t allocs = 0;  // operator new calls, timed phase

  // Simulated side: bit-identical for every repetition of one seed.
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;       // dispatched in the timed phase
  std::uint64_t boot_events = 0;  // dispatched by Cluster::Boot
  std::vector<double> latency_us;  // per-operation simulated latency
  double goodput_mbs = 0;
  Counters counters;                // per-layer registry diffs, timed phase
  std::map<std::string, double> sim;  // workload-specific simulated values

  std::vector<std::string> errors;  // first few correctness failures
  bool traced = false;
  SpanLog spans{false};

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Runs Cluster::Boot under an exclusive span, recording its host time and the
// events it dispatched in `rep`.
vmmc::Status TimedBoot(vmmc::vmmc_core::Cluster& cluster, Rep& rep);

struct RunConfig {
  std::uint64_t seed = 1;
  bool trace = false;
};

using WorkloadFn = std::function<Rep(const RunConfig&)>;
Rep RunAllreduce64(const RunConfig& cfg);
Rep RunPingpongStream(const RunConfig& cfg);
Rep RunRdmaKvLossy(const RunConfig& cfg);

// The Figure 2 / Figure 3 procedure on fresh two-node clusters: 4-byte
// ping-pong one-way latency (us) and 1 MB ping-pong bandwidth (MB/s).
struct PaperCheck {
  double lat4_us = 0;
  double bw1m_mbs = 0;
};
PaperCheck RunPaperCheck();

}  // namespace perfbench
