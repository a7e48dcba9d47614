// allreduce64: the 64-node fattree:64@16 cluster, every rank running the
// seed's sequence of Communicator::AllReduceSum calls (closed loop: a rank
// issues its next allreduce when the previous one returned). Sizes are a
// seed-shuffled mix of small vectors (recursive doubling over eager sends)
// and 32 KB vectors (ring over rendezvous RdmaRead).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "vmmc/coll/communicator.h"
#include "vmmc/vmmc/cluster.h"

namespace perfbench {
namespace {

using vmmc::coll::CommOptions;
using vmmc::coll::Communicator;
using vmmc::sim::Process;
using vmmc::vmmc_core::Cluster;
using vmmc::vmmc_core::ClusterOptions;

constexpr int kRanks = 64;
constexpr std::size_t kSmallMaxElems = 56;   // 448 B: one eager message
constexpr std::size_t kLargeElems = 4096;    // 32 KB
constexpr int kLargeOps = 3;
constexpr int kSmallOps = 45;
// Simulated deadlines. Warm-up and timed phase take ~10 and ~50 ms; every
// waiting rank polls, so a hung phase costs about a minute of host time per
// simulated second and must be cut off well before that.
constexpr Tick kCreateDeadline = vmmc::sim::Seconds(2);
constexpr Tick kPhaseDeadline = vmmc::sim::Milliseconds(500);

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  return x ^ (x >> 33);
}

// Rank r contributes base + (r + 1) * mult at element i, so the sum over
// ranks has the closed form kRanks * base + mult * kRanks * (kRanks + 1) / 2.
std::int64_t Base(std::uint64_t key, std::size_t i) {
  return static_cast<std::int64_t>(Mix(key + 2 * i) & 0xFFFFF) - 0x80000;
}
std::int64_t Mult(std::uint64_t key, std::size_t i) {
  return static_cast<std::int64_t>(Mix(key + 2 * i + 1) & 0xFFF);
}
std::int64_t Contribution(std::uint64_t key, std::size_t i, int rank) {
  return Base(key, i) + (rank + 1) * Mult(key, i);
}
std::int64_t ExpectedSum(std::uint64_t key, std::size_t i) {
  return kRanks * Base(key, i) + Mult(key, i) * kRanks * (kRanks + 1) / 2;
}

struct Op {
  std::size_t elems;
  std::uint64_t key;
};

// Per-rank results of one pass over an operation list.
struct Record {
  std::vector<std::vector<Tick>> done_at;  // [op][rank] completion time
  std::vector<double> small_us, large_us;  // per-rank latencies by size
  std::vector<bool> op_failed;
};

// Runs `ops` on every rank, checking each result against its closed form.
// Returns false if the ranks did not all finish by `deadline`.
bool RunOps(vmmc::sim::Simulator& sim,
            std::vector<std::unique_ptr<Communicator>>& comms,
            const std::vector<Op>& ops, Tick deadline, Rep& rep, SpanLog* log,
            Record& rec, double* engine_s) {
  rec.done_at.assign(ops.size(), std::vector<Tick>(kRanks, 0));
  rec.op_failed.assign(ops.size(), false);
  int finished = 0;
  auto rank_loop = [&](int r) -> Process {
    Communicator& comm = *comms[static_cast<std::size_t>(r)];
    std::vector<std::int64_t> values;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Op& op = ops[k];
      values.resize(op.elems);
      for (std::size_t i = 0; i < op.elems; ++i) {
        values[i] = Contribution(op.key, i, r);
      }
      const auto op_id = static_cast<std::uint32_t>(k);
      const std::int32_t root = log->Begin("bench.op", op_id, -1, sim.now());
      const std::int32_t call =
          log->Begin("coll.AllReduceSum", op_id, root, sim.now());
      const Tick t0 = sim.now();
      vmmc::Status s = co_await comm.AllReduceSum(values);
      const Tick t1 = sim.now();
      log->End(call, t1);
      bool ok = s.ok();
      for (std::size_t i = 0; ok && i < op.elems; ++i) {
        ok = values[i] == ExpectedSum(op.key, i);
      }
      log->End(root, sim.now());
      rec.done_at[k][static_cast<std::size_t>(r)] = t1;
      const double us = vmmc::sim::ToMicroseconds(t1 - t0);
      (op.elems <= kSmallMaxElems ? rec.small_us : rec.large_us).push_back(us);
      if (!ok && !rec.op_failed[k]) {
        rec.op_failed[k] = true;
        rep.Fail("allreduce op " + std::to_string(k) + " rank " +
                 std::to_string(r) + ": " +
                 (s.ok() ? std::string("wrong sum") : s.ToString()));
      }
    }
    ++finished;
  };
  for (int r = 0; r < kRanks; ++r) sim.Spawn(rank_loop(r));
  return Drive(sim, [&] { return finished == kRanks; }, deadline, engine_s, log);
}

}  // namespace

Rep RunAllreduce64(const RunConfig& cfg) {
  Rep rep;
  rep.spans = SpanLog(cfg.trace);
  SpanLog* log = &rep.spans;

  // The seed's inputs: sizes, order and vector contents.
  Rng rng = WorkloadRng(cfg.seed, 0xA11);
  std::vector<Op> ops;
  for (int i = 0; i < kLargeOps; ++i) ops.push_back({kLargeElems, 0});
  // Small sizes are stratified over 1..56 elements (one seeded draw per
  // equal-width stratum), so every seed covers the whole eager range.
  for (int i = 0; i < kSmallOps; ++i) {
    const double u = (i + rng.Unit()) / kSmallOps;
    ops.push_back({1 + static_cast<std::size_t>(u * kSmallMaxElems), 0});
  }
  rng.Shuffle(ops);
  for (Op& op : ops) op.key = rng.Next();
  const std::vector<Op> warmup = {{kSmallMaxElems, rng.Next()},
                                  {kLargeElems, rng.Next()}};

  const std::int64_t setup_t0 = HostNs();
  vmmc::sim::Simulator sim;
  vmmc::Params params;
  auto options = ClusterOptions::FromSpec("fattree:64@16");
  if (!options.ok()) {
    rep.Fail("cluster spec: " + options.status().ToString());
    return rep;
  }
  Cluster cluster(sim, params, options.value());
  const vmmc::Status booted = TimedBoot(cluster, rep);
  if (!booted.ok()) {
    rep.Fail("boot: " + booted.ToString());
    return rep;
  }

  // Communicators with lazy links, then a warm-up pass (one small and one
  // large allreduce) that establishes every link both algorithms use and
  // warms the TLBs and registration caches.
  const Tick links_t0 = sim.now();
  std::vector<std::unique_ptr<Communicator>> comms(kRanks);
  int created = 0;
  auto create = [&](int r) -> Process {
    CommOptions copts;
    copts.lazy_links = true;
    const std::int32_t span =
        log->Begin("coll.Communicator::Create", 0, -1, sim.now());
    auto c = co_await Communicator::Create(cluster, r, kRanks, "world", copts);
    log->End(span, sim.now());
    if (c.ok()) {
      comms[static_cast<std::size_t>(r)] = std::move(c).value();
    } else {
      rep.Fail("communicator " + std::to_string(r) + ": " +
               c.status().ToString());
    }
    ++created;
  };
  for (int r = 0; r < kRanks; ++r) sim.Spawn(create(r));
  if (!Drive(sim, [&] { return created == kRanks; },
             sim.now() + kCreateDeadline, nullptr, log) ||
      rep.failed > 0) {
    rep.Fail("communicator set-up stalled");
    return rep;
  }
  Record warm;
  if (!RunOps(sim, comms, warmup, sim.now() + kPhaseDeadline, rep,
              log, warm, nullptr)) {
    rep.Fail("warm-up stalled");
    return rep;
  }
  rep.sim["coll.link_setup_us"] = vmmc::sim::ToMicroseconds(sim.now() - links_t0);
  rep.setup_s = SecondsSince(setup_t0);

  // Timed phase.
  const Counters before = ReadCounters(sim.metrics(), kRanks);
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t allocs0 = AllocCount();
  const Tick sim0 = sim.now();
  Record rec;
  const std::int64_t timed_t0 = HostNs();
  const bool finished = RunOps(sim, comms, ops, sim0 + kPhaseDeadline,
                               rep, log, rec, &rep.engine_s);
  rep.timed_s = SecondsSince(timed_t0);
  rep.allocs = AllocCount() - allocs0;
  rep.events = sim.events_processed() - events0;
  rep.counters = Diff(ReadCounters(sim.metrics(), kRanks), before);
  rep.ops = ops.size();
  if (!finished) {
    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (!rec.op_failed[k]) {
        rep.Fail("allreduce op " + std::to_string(k) + " stalled");
      }
    }
    return rep;
  }

  // Simulated results: latency per rank and call, goodput as reduced
  // vector bytes delivered to every rank per simulated second, and the
  // completion skew between the first and the last rank of each call.
  rep.latency_us = rec.small_us;
  rep.latency_us.insert(rep.latency_us.end(), rec.large_us.begin(),
                        rec.large_us.end());
  std::uint64_t payload = 0;
  for (const Op& op : ops) payload += op.elems * sizeof(std::int64_t) * kRanks;
  rep.goodput_mbs = vmmc::sim::MBPerSec(payload, sim.now() - sim0);
  std::vector<double> skew;
  for (const auto& t : rec.done_at) {
    const auto [lo, hi] = std::minmax_element(t.begin(), t.end());
    skew.push_back(vmmc::sim::ToMicroseconds(*hi - *lo));
  }
  const Summary small = Summarize(rec.small_us);
  const Summary large = Summarize(rec.large_us);
  rep.sim["coll.allreduce_small_us.p50"] = small.p50;
  rep.sim["coll.allreduce_small_us.tail"] = small.tail;
  rep.sim["coll.allreduce_large_us.p50"] = large.p50;
  rep.sim["coll.allreduce_large_us.tail"] = large.tail;
  rep.sim["coll.rank_skew_us"] = Summarize(skew).p50;
  return rep;
}

}  // namespace perfbench
