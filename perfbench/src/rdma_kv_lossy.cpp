// rdma_kv_lossy: eight nodes on one switch. Node 0 serves a value arena
// registered through the pin-down cache; nodes 1..7 are clients with one
// operation outstanding each (closed loop). Keys are Zipf-distributed;
// 90% of operations are one-sided RdmaRead GETs, 10% RdmaWrite PUTs whose
// fin word the client then reads back as the acknowledgement. Each client
// registers and unregisters its per-key destination buffer around every
// GET, over a working set of about 1.5x the registration-cache budget.
// A seeded FaultPlan drops ~1% of packets and bit-flips ~0.5% during the
// timed phase, so go-back-N recovery is on the hot path.
//
// Correctness: every GET must return the bytes of the last acknowledged
// PUT to its key (shadow versions; a per-key reader/writer lock in the
// clients keeps GETs and PUTs of one key from overlapping), and after the
// run the server arena must hold exactly the last acknowledged version of
// every key.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/sync.h"
#include "vmmc/vmmc/cluster.h"

namespace perfbench {
namespace {

using vmmc::mem::VirtAddr;
using vmmc::sim::Process;
using vmmc::vmmc_core::Endpoint;
using vmmc::vmmc_core::MemRegion;
using vmmc::vmmc_core::RdmaOptions;
using vmmc::vmmc_core::RegIntent;
using vmmc::vmmc_core::RemoteTarget;

constexpr int kNodes = 8;
constexpr int kServer = 0;
constexpr int kClients = kNodes - 1;
// 7 x 1428 = 9996 latency samples: the tail is then p99.5, with ~50
// samples beyond it, rather than p99.9 resting on ten.
constexpr int kOpsPerClient = 1428;
constexpr std::uint64_t kRegBudget = 1024 * 1024;
constexpr std::uint32_t kMinValue = 64;
constexpr std::uint32_t kMaxValue = 16 * 1024;
constexpr double kZipfS = 0.99;
constexpr int kPutPercent = 10;
// Per-packet loss rates. Every packet crosses two links (NIC to switch,
// switch to NIC): drops apply on both, at half the per-packet rate; a bit
// flip can hit a packet once, on the link that injects it. Two flips in
// one packet can pass the per-link CRC-8 unnoticed (x^8+x^2+x+1 misses
// two-bit errors 127 bits apart), which the data path does not yet guard
// against end to end; see perfbench/README.md.
constexpr double kDropRate = 0.01;
constexpr double kBitflipRate = 0.005;
constexpr int kMaxAckReads = 1000;
// Simulated deadline of the warm-up and of the timed phase (~0.3 s).
constexpr Tick kPhaseDeadline = vmmc::sim::Seconds(3);
constexpr std::uint32_t kPage = 4096;

std::uint64_t PageRound(std::uint64_t n) { return (n + kPage - 1) / kPage * kPage; }

struct Key {
  std::uint32_t len = 0;
  std::uint64_t off = 0;       // same layout in the server arena and clients
  std::uint64_t version = 0;   // last acknowledged PUT (0: initial value)
  int readers = 0;
  int writers_waiting = 0;
  bool writer = false;
  std::unique_ptr<vmmc::sim::Event> changed;
};

struct Op {
  std::uint32_t key;
  bool put;
};

std::uint64_t ValueId(std::uint64_t seed, std::uint32_t key,
                      std::uint64_t version) {
  return seed * 0x100000001B3ull ^ (static_cast<std::uint64_t>(key) << 32) ^
         version;
}

class Kv {
 public:
  Kv(const RunConfig& cfg, Rep& rep)
      : seed_(cfg.seed), rep_(rep), log_(&rep.spans), expect_(kMaxValue),
        got_(kMaxValue) {}

  // Inputs from the seed: key sizes (until the per-client working set
  // reaches 1.5x the cache budget), Zipf ranks mapped to shuffled keys, and
  // each client's operation list. Sizes are log-uniform between 64 B and
  // 16 KB, spread over the popularity ranks by a golden-ratio sequence
  // with a seeded phase, so the hottest keys do not all draw one size.
  void MakeInputs() {
    Rng rng = WorkloadRng(seed_, 0x6B76);
    const double phase = rng.Unit() / 64;
    std::vector<std::uint32_t> by_rank_len;
    std::uint64_t total = 0;
    while (total < kRegBudget * 3 / 2) {
      const double q = std::fmod(phase + 0.6180339887498949 * by_rank_len.size(), 1.0);
      const double len = kMinValue * std::exp2(8.0 * q);  // 64 B .. 16 KB
      by_rank_len.push_back(std::min<std::uint32_t>(
          static_cast<std::uint32_t>(len) & ~3u, kMaxValue));
      total += PageRound(by_rank_len.back());
    }
    const std::size_t n = by_rank_len.size();
    std::vector<std::uint32_t> by_rank(n);
    for (std::size_t i = 0; i < n; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
    rng.Shuffle(by_rank);
    keys_.resize(n);
    for (std::size_t r = 0; r < n; ++r) keys_[by_rank[r]].len = by_rank_len[r];
    total = 0;
    for (Key& k : keys_) {
      k.off = total;
      total += PageRound(k.len);
    }
    arena_bytes_ = total;
    std::vector<double> cdf(n);
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = sum;
    }
    ops_.resize(kClients);
    for (auto& list : ops_) {
      for (int i = 0; i < kOpsPerClient; ++i) {
        const double u = rng.Unit() * sum;
        const auto r = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        list.push_back({by_rank[std::min(r, n - 1)],
                        static_cast<int>(rng.Range(0, 99)) < kPutPercent});
      }
    }
    fault_seed_ = rng.Next();
  }

  bool SetUp() {
    params_.vmmc.regcache.budget_bytes = kRegBudget;
    vmmc::vmmc_core::ClusterOptions options;
    options.num_nodes = kNodes;
    cluster_ = std::make_unique<vmmc::vmmc_core::Cluster>(sim_, params_, options);
    const vmmc::Status booted = TimedBoot(*cluster_, rep_);
    if (!booted.ok()) return Fail("boot", booted);
    for (int n = 0; n < kNodes; ++n) {
      auto ep = cluster_->OpenEndpoint(n, n == kServer ? "kv-server" : "kv-client");
      if (!ep.ok()) return Fail("open endpoint", ep.status());
      eps_.push_back(std::move(ep).value());
    }
    for (Key& k : keys_) k.changed = std::make_unique<vmmc::sim::Event>(sim_);

    // Server arena with every key's initial value, and the PUT fin words.
    Endpoint& server = *eps_[kServer];
    auto arena = server.AllocBuffer(static_cast<std::uint32_t>(arena_bytes_));
    auto fins = server.AllocBuffer(static_cast<std::uint32_t>(
        PageRound(keys_.size() * 4)));
    if (!arena.ok()) return Fail("arena", arena.status());
    if (!fins.ok()) return Fail("fin words", fins.status());
    arena_ = arena.value();
    for (std::uint32_t i = 0; i < keys_.size(); ++i) {
      FillPattern(ValueId(seed_, i, 0), expect_.data(), keys_[i].len);
      (void)server.WriteBuffer(arena_ + keys_[i].off,
                               std::span(expect_.data(), keys_[i].len));
    }
    for (int c = 1; c < kNodes; ++c) {
      auto dst = eps_[c]->AllocBuffer(static_cast<std::uint32_t>(arena_bytes_));
      auto src = eps_[c]->AllocBuffer(kMaxValue);
      auto ack = eps_[c]->AllocBuffer(kPage);
      if (!dst.ok() || !src.ok() || !ack.ok()) {
        return Fail("client buffers", vmmc::ResourceExhausted("alloc"));
      }
      clients_.push_back({dst.value(), src.value(), ack.value(), {}});
    }
    bool done = false;
    vmmc::Status status;
    auto regs = [&]() -> Process {
      auto a = co_await server.RegisterMemory(arena_, arena_bytes_, RegIntent::kRecv);
      auto f = co_await server.RegisterMemory(fins.value(), PageRound(keys_.size() * 4),
                                              RegIntent::kRecv);
      if (!a.ok()) status = a.status();
      if (!f.ok()) status = f.status();
      if (status.ok()) {
        arena_rtag_ = a.value().rtag;
        fin_rtag_ = f.value().rtag;
      }
      for (int c = 0; c < kClients && status.ok(); ++c) {
        auto r = co_await eps_[c + 1]->RegisterMemory(clients_[c].ack, kPage,
                                                      RegIntent::kRecv);
        if (r.ok()) {
          clients_[c].ack_region = r.value();
        } else {
          status = r.status();
        }
      }
      done = true;
    };
    sim_.Spawn(regs());
    if (!Drive(sim_, [&] { return done; }, sim_.now() + vmmc::sim::Seconds(1),
               nullptr, log_)) {
      return Fail("registration", vmmc::InternalError("stalled"));
    }
    if (!status.ok()) return Fail("registration", status);

    // Warm-up: every client GETs every key once (fills its registration
    // cache and TLB) and PUTs one key of its own.
    std::vector<std::vector<Op>> warm(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (std::uint32_t i = 0; i < keys_.size(); ++i) {
        const auto key = static_cast<std::uint32_t>((i + c * 37) % keys_.size());
        warm[c].push_back({key, false});
      }
      warm[c].push_back({static_cast<std::uint32_t>(c), true});
    }
    return RunClients(warm, 1u << 30, nullptr, nullptr);
  }

  // Runs every client's list; returns false on a stall.
  bool RunClients(const std::vector<std::vector<Op>>& lists, std::uint32_t op_base,
                  std::vector<double>* lat_us, double* engine_s) {
    int finished = 0;
    std::uint64_t bytes = 0;
    const Tick t0 = sim_.now();
    for (int c = 0; c < kClients; ++c) {
      sim_.Spawn(Client(c, lists[c], op_base + c * kOpsPerClient * 2, lat_us,
                        &bytes, &finished));
    }
    const bool ok = Drive(sim_, [&] { return finished == kClients; },
                          t0 + kPhaseDeadline, engine_s, log_);
    goodput_mbs_ = vmmc::sim::MBPerSec(bytes, sim_.now() - t0);
    return ok;
  }

  void InjectFaults() {
    vmmc::sim::LinkFaultRule drop;
    drop.drop_rate = kDropRate / 2;
    vmmc::sim::FaultPlan plan = vmmc::sim::FaultPlan::AllLinks(drop, fault_seed_);
    for (int n = 0; n < kNodes; ++n) {
      vmmc::sim::LinkFaultRule flip;
      flip.src_nic = n;
      flip.bitflip_rate = kBitflipRate;
      plan.links.push_back(flip);
    }
    sim_.faults().Configure(plan);
  }

  // The server arena must hold the last acknowledged version of each key.
  void CheckArena() {
    for (std::uint32_t i = 0; i < keys_.size(); ++i) {
      const Key& k = keys_[i];
      FillPattern(ValueId(seed_, i, k.version), expect_.data(), k.len);
      std::span<std::uint8_t> got(got_.data(), k.len);
      if (!eps_[kServer]->ReadBuffer(arena_ + k.off, got).ok() ||
          std::memcmp(got.data(), expect_.data(), k.len) != 0) {
        rep_.Fail("arena key " + std::to_string(i) + " is not version " +
                  std::to_string(k.version));
      }
    }
  }

  vmmc::sim::Simulator& sim() { return sim_; }
  const std::vector<std::vector<Op>>& ops() const { return ops_; }
  double goodput_mbs() const { return goodput_mbs_; }

 private:
  struct ClientBufs {
    VirtAddr dst, src, ack;
    MemRegion ack_region;
  };

  bool Fail(const char* what, const vmmc::Status& s) {
    rep_.Fail(std::string(what) + ": " + s.ToString());
    return false;
  }

  // Says which version the bytes of a failed GET hold, if any, and where
  // they first differ from the expected one.
  std::string Diagnose(std::uint32_t key, std::span<const std::uint8_t> got) {
    const Key& k = keys_[key];
    std::vector<std::uint8_t> v(k.len);
    for (std::uint64_t ver = 0; ver <= k.version + 1; ++ver) {
      FillPattern(ValueId(seed_, key, ver), v.data(), k.len);
      if (std::memcmp(v.data(), got.data(), k.len) == 0) {
        return "got version " + std::to_string(ver) + ", expected " +
               std::to_string(k.version);
      }
    }
    FillPattern(ValueId(seed_, key, k.version), v.data(), k.len);
    std::size_t first = 0, differ = 0;
    for (std::size_t i = 0; i < k.len; ++i) {
      if (v[i] != got[i] && differ++ == 0) first = i;
    }
    return "corrupt value: " + std::to_string(differ) + " of " +
           std::to_string(k.len) + " bytes differ from version " +
           std::to_string(k.version) + ", first at " + std::to_string(first);
  }

  static void Notify(Key& k) {
    k.changed->Set();
    k.changed->Reset();
  }

  Process Client(int c, const std::vector<Op>& list, std::uint32_t op_base,
                 std::vector<double>* lat_us, std::uint64_t* bytes, int* finished) {
    Endpoint& ep = *eps_[c + 1];
    const ClientBufs& buf = clients_[c];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Op& op = list[i];
      Key& k = keys_[op.key];
      const auto id = static_cast<std::uint32_t>(op_base + i);
      const Tick t0 = sim_.now();
      const std::int32_t root =
          log_->Begin(op.put ? "bench.put" : "bench.get", id, -1, t0);
      const std::int32_t lock = log_->Begin("bench.lock", id, root, t0);
      if (op.put) {
        ++k.writers_waiting;
        while (k.writer || k.readers > 0) co_await k.changed->Wait();
        --k.writers_waiting;
        k.writer = true;
      } else {
        while (k.writer || k.writers_waiting > 0) co_await k.changed->Wait();
        ++k.readers;
      }
      log_->End(lock, sim_.now());
      const RemoteTarget value{kServer, arena_rtag_, k.off};
      bool ok = true;
      std::string why;
      if (op.put) {
        const std::uint64_t version = k.version + 1;
        FillPattern(ValueId(seed_, op.key, version), expect_.data(), k.len);
        (void)ep.WriteBuffer(buf.src, std::span(expect_.data(), k.len));
        std::int32_t s = log_->Begin("api.RegisterMemory", id, root, sim_.now());
        auto reg = co_await ep.RegisterMemory(buf.src, k.len, RegIntent::kSend);
        log_->End(s, sim_.now());
        vmmc::Status st = reg.status();
        if (reg.ok()) {
          RdmaOptions fin;
          fin.fin_rtag = fin_rtag_;
          fin.fin_offset = op.key * 4ull;
          fin.fin_value = static_cast<std::uint32_t>(version);
          s = log_->Begin("api.RdmaWrite", id, root, sim_.now());
          st = co_await ep.RdmaWrite(buf.src, value, k.len, fin);
          log_->End(s, sim_.now());
          s = log_->Begin("api.UnregisterMemory", id, root, sim_.now());
          vmmc::Status un = co_await ep.UnregisterMemory(reg.value());
          log_->End(s, sim_.now());
          if (st.ok()) st = un;
        }
        // Acknowledgement: read the fin word back until it shows this PUT.
        int reads = 0;
        while (st.ok()) {
          s = log_->Begin("api.RdmaRead", id, root, sim_.now());
          st = co_await ep.RdmaRead(RemoteTarget{kServer, fin_rtag_, op.key * 4ull},
                                    4, buf.ack_region, 0);
          log_->End(s, sim_.now());
          if (ep.memory().ReadU32(buf.ack).value_or(0) ==
              static_cast<std::uint32_t>(version)) {
            break;
          }
          if (++reads == kMaxAckReads) st = vmmc::Unavailable("PUT never acknowledged");
        }
        if (st.ok()) {
          k.version = version;
          *bytes += k.len;
        } else {
          ok = false;
          why = st.ToString();
        }
        k.writer = false;
      } else {
        const VirtAddr dst = buf.dst + k.off;
        std::int32_t s = log_->Begin("api.RegisterMemory", id, root, sim_.now());
        auto reg = co_await ep.RegisterMemory(dst, k.len, RegIntent::kRecv);
        log_->End(s, sim_.now());
        vmmc::Status st = reg.status();
        if (reg.ok()) {
          s = log_->Begin("api.RdmaRead", id, root, sim_.now());
          st = co_await ep.RdmaRead(value, k.len, reg.value(), 0);
          log_->End(s, sim_.now());
          s = log_->Begin("api.UnregisterMemory", id, root, sim_.now());
          vmmc::Status un = co_await ep.UnregisterMemory(reg.value());
          log_->End(s, sim_.now());
          if (st.ok()) st = un;
        }
        if (st.ok()) {
          FillPattern(ValueId(seed_, op.key, k.version), expect_.data(), k.len);
          std::span<std::uint8_t> got(got_.data(), k.len);
          ok = ep.ReadBuffer(dst, got).ok() &&
               std::memcmp(got.data(), expect_.data(), k.len) == 0;
          if (ok) {
            *bytes += k.len;
          } else {
            why = Diagnose(op.key, got);
          }
        } else {
          ok = false;
          why = st.ToString();
        }
        --k.readers;
      }
      Notify(k);
      const Tick t1 = sim_.now();
      log_->End(root, t1);
      if (lat_us != nullptr) lat_us->push_back(vmmc::sim::ToMicroseconds(t1 - t0));
      if (!ok) {
        rep_.Fail(std::string(op.put ? "PUT" : "GET") + " key " +
                  std::to_string(op.key) + " by client " + std::to_string(c + 1) +
                  ": " + why);
      }
    }
    ++*finished;
  }

  std::uint64_t seed_;
  Rep& rep_;
  SpanLog* log_;
  vmmc::sim::Simulator sim_;
  vmmc::Params params_;
  std::unique_ptr<vmmc::vmmc_core::Cluster> cluster_;
  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::vector<Key> keys_;
  std::vector<std::vector<Op>> ops_;
  std::vector<ClientBufs> clients_;
  std::vector<std::uint8_t> expect_, got_;
  std::uint64_t arena_bytes_ = 0;
  VirtAddr arena_ = 0;
  std::uint32_t arena_rtag_ = 0;
  std::uint32_t fin_rtag_ = 0;
  std::uint64_t fault_seed_ = 0;
  double goodput_mbs_ = 0;
};

}  // namespace

Rep RunRdmaKvLossy(const RunConfig& cfg) {
  Rep rep;
  rep.spans = SpanLog(cfg.trace);
  const std::int64_t setup_t0 = HostNs();
  auto kv = std::make_unique<Kv>(cfg, rep);
  kv->MakeInputs();
  if (!kv->SetUp()) {
    rep.Fail("set-up");
    return rep;
  }
  rep.setup_s = SecondsSince(setup_t0);

  vmmc::sim::Simulator& sim = kv->sim();
  kv->InjectFaults();
  const Counters before = ReadCounters(sim.metrics(), kNodes);
  const std::uint64_t events0 = sim.events_processed();
  const std::uint64_t allocs0 = AllocCount();
  const std::int64_t timed_t0 = HostNs();
  const bool finished = kv->RunClients(kv->ops(), 0, &rep.latency_us, &rep.engine_s);
  rep.timed_s = SecondsSince(timed_t0);
  rep.allocs = AllocCount() - allocs0;
  rep.events = sim.events_processed() - events0;
  rep.counters = Diff(ReadCounters(sim.metrics(), kNodes), before);
  rep.ops = static_cast<std::uint64_t>(kClients) * kOpsPerClient;
  rep.goodput_mbs = kv->goodput_mbs();
  if (!finished) {
    rep.Fail("clients stalled");
    return rep;
  }
  kv->CheckArena();
  return rep;
}

}  // namespace perfbench
