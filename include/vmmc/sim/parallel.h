// Conservative parallel discrete-event engine.
//
// A ParallelEngine owns N shards, each a full Simulator (its own pooled
// event queue, metrics registry, tracer, fault injector and RNG streams).
// Model components — a node's host+NIC, a switch, the Ethernet segment —
// are logical processes (LPs): each is constructed against exactly one
// shard's Simulator and only ever touches state owned by that shard. A
// partition planner (see vmmc/vmmc/runtime.h for the cluster-level one)
// decides the LP -> shard grouping; the engine itself is topology-blind.
//
// Synchronization is conservative with a fixed lookahead L (the minimum
// cross-LP latency — for the Myrinet fabric, one link's propagation
// delay, NetParams::link_latency). Execution proceeds in iterations; each
// iteration executes one absolute time window [w, w+L) on every shard:
//
//   1. wait      — all shards have finished executing iteration k-1
//                  (a scan over per-shard atomic counters: the lower
//                  bound on timestamp is implied by every neighbour
//                  having committed its window, no null messages needed);
//   2. drain     — pop every cross-LP event committed at k-1 from the
//                  SPSC channels (channel.h) and schedule it locally,
//                  in (time, source shard, push order) — deterministic;
//   3. min       — publish this shard's next event time; the global
//                  minimum M over all shards picks the next window
//                  (idle regions are skipped in one hop, so a quiet
//                  100 us Ethernet wait does not cost 2000 iterations);
//   4. execute   — run all local events with time < (floor(M/L)+1)*L and
//                  park every shard clock on that window edge (clocks
//                  never diverge across shards, even through idle skips),
//                  buffering cross-LP sends into channels; commit the
//                  channels and publish the iteration counter.
//
// Events generated in window k for another shard always carry time
// >= k_end when the sender respects the lookahead (a Myrinet link's
// delivery is at least link_latency in the future), so draining at k+1
// never delivers into the past. The few genuinely zero-lookahead edges in
// the model (wormhole StallUntil backpressure, misroute drop notices,
// Ethernet handoffs to the shared-segment LP) are clamped at drain time
// to the receiver's current instant — at most one window (50 ns) late,
// deterministically; DESIGN.md "Threading model" discusses why that
// relaxation is sound for each edge.
//
// Determinism. Every quantity steering execution — window starts, drain
// order, merge keys — is a pure function of the partition and the model,
// not of thread scheduling. Hence the engine's core guarantee: for a
// fixed partition, runs are bit-identical for ANY worker thread count
// (1, 2, 8, ... threads all dispatch the same events at the same ticks
// in the same per-shard order). sim_parallel_test.cpp asserts this.
//
// Worker threads. Shards are distributed round-robin over
// min(requested, num_shards) workers; the caller's thread acts as worker
// 0 for the duration of a Run* call. Requesting more workers than cores
// is allowed (the waits fall back from spinning to yielding) but only
// adds overhead — pick the worker count to fit the machine (the
// ClusterRuntime front-end takes it from VMMC_THREADS).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "vmmc/sim/channel.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/time.h"

namespace vmmc::sim {

class ParallelEngine {
 public:
  struct Options {
    // Worker threads for Run* calls; 0 means one per shard. Values above
    // num_shards are clamped. The caller decides whether to exceed the
    // machine's core count (see ClusterRuntime::EnvThreads).
    int workers = 0;
    // Per-channel slot count; one channel exists per ordered shard pair.
    // Bounds the cross-LP events a single shard pair can generate inside
    // one lookahead window (overflow aborts loudly — see channel.h).
    std::size_t channel_capacity = 1024;
  };

  explicit ParallelEngine(Tick lookahead);  // default Options
  ParallelEngine(Tick lookahead, Options options);
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // --- setup (single-threaded, before the first Run* call) ---

  // Adds one shard and returns its id. The shard's Simulator is owned by
  // the engine; components of the LPs mapped to this shard are built
  // against it exactly as they would be against a standalone Simulator.
  int AddShard();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Tick lookahead() const { return lookahead_; }
  Simulator& shard(int i) { return *shards_[static_cast<std::size_t>(i)]->sim; }
  const Simulator& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)]->sim;
  }

  // --- cross-shard scheduling ---

  // Schedules `fn` at absolute time `t` on shard `to`. Must be called
  // from shard `from`'s execution context (or between Run* calls). The
  // event becomes visible to `to` at the next window boundary; if `t`
  // has passed by then (a zero-lookahead edge), it is clamped to the
  // receiver's current instant at drain time.
  template <typename F>
  void PostRemote(int from, int to, Tick t, F&& fn) {
    assert(from >= 0 && from < num_shards() && to >= 0 && to < num_shards());
    assert(from != to && "same-shard events go through Simulator::At");
    SpscChannel& ch = ChannelTo(from, to);
    if (!ch.has_uncommitted()) {
      shards_[static_cast<std::size_t>(from)]->dirty_out.push_back(to);
    }
    ch.Push(t, std::forward<F>(fn));
  }

  // --- execution (drives worker threads; not reentrant) ---

  // Runs until every shard's queue and every channel is empty. Returns
  // the total number of events dispatched across shards during the call.
  std::uint64_t RunUntilQuiescent();

  // Runs until `pred()` is true or the system quiesces. The predicate is
  // evaluated between windows, on the caller's thread, with every shard
  // paused at the same iteration boundary — it may read cross-shard state
  // written strictly before that boundary. Returns true if the predicate
  // was satisfied, false on quiescence — mirroring Simulator::RunUntil,
  // except the stop lands on the next window boundary (<= lookahead
  // ticks later in sim time) instead of the very next event.
  bool RunUntil(std::function<bool()> pred);

  // --- post-run introspection ---

  // Total events dispatched across all shards since construction.
  std::uint64_t events_processed() const;
  // Total WaitChange poll-lane rotations across all shards.
  std::uint64_t watch_steps() const;
  // Maximum now() over shards — the fleet-wide clock after a run.
  Tick now() const;
  // Folds every shard's metrics registry into `out` (counters sum,
  // histograms merge, gauges merge approximately; see Registry::MergeFrom)
  // — the "merge per-LP registries at dump time" half of the obs story.
  void MergeMetricsInto(obs::Registry& out) const;

 private:
  struct Shard {
    std::unique_ptr<Simulator> sim;
    // Iterations this shard has fully executed / drained. Padded: these
    // are the only cross-thread contended words in the steady state.
    alignas(64) std::atomic<std::uint64_t> exec_done{0};
    alignas(64) std::atomic<std::uint64_t> drain_done{0};
    alignas(64) std::atomic<Tick> next_time{0};
    // Consumer side: bit `from` of inbox[k & 1] is set when shard `from`
    // committed events for this shard at iteration k, so a drain visits
    // only those channels. Two banks: senders flag iteration k+1 while
    // this shard is still draining iteration k.
    alignas(64) std::unique_ptr<std::atomic<std::uint64_t>[]> inbox[2];
    // Producer side, touched only by the thread running this shard: the
    // shards it pushed to since its last commit, so a window commits only
    // the channels it used instead of all num_shards() of them.
    alignas(64) std::vector<int> dirty_out;
  };

  static constexpr Tick kNoEvent = std::numeric_limits<Tick>::max();

  SpscChannel& ChannelTo(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(num_shards()) +
                      static_cast<std::size_t>(to)];
  }

  void Finalize();  // builds the channel matrix on first run
  int WorkerCount() const;
  void WorkerLoop(int worker, int num_workers,
                  const std::function<bool()>* pred);
  void DrainShard(int shard, std::uint64_t iter);
  // Commits `shard`'s used outgoing channels at `iter` and flags them in
  // the receivers' inboxes.
  void CommitShard(int shard, std::uint64_t iter);
  std::size_t InboxWords() const {
    return (static_cast<std::size_t>(num_shards()) + 63) / 64;
  }
  std::uint64_t RunImpl(const std::function<bool()>* pred);

  Tick lookahead_;
  Options options_;
  // unique_ptr: Shard embeds atomics (immovable) and wants stable,
  // cache-line-padded addresses.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Dense (from, to) matrix; diagonal entries stay null. Built lazily at
  // the first Run* call, after which AddShard is rejected.
  std::vector<std::unique_ptr<SpscChannel>> channels_;
  bool finalized_ = false;
  // Iteration counter continues across Run* calls so channel commit slots
  // stay consistent.
  std::uint64_t next_iter_ = 1;
  // Worker-0 decisions for the current iteration, read by the others
  // after the drain barrier.
  std::atomic<std::uint64_t> stop_iter_{0};
  bool pred_satisfied_ = false;
};

}  // namespace vmmc::sim
