#include "bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

// --- Counting operator new --------------------------------------------------
// Every allocation in the process, library included, passes through here.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void FillPattern(std::uint64_t key, std::uint8_t* out, std::size_t len) {
  Rng rng(key * 0x2545F4914F6CDD1Dull + 0x5851F42D4C957F2Dull);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t w = rng.Next();
    std::memcpy(out + i, &w, 8);
  }
  if (i < len) {
    const std::uint64_t w = rng.Next();
    std::memcpy(out + i, &w, len - i);
  }
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto rank = [&](double pct) {
    // Nearest rank: the smallest value with at least pct% at or below it.
    const double r = pct / 100.0 * static_cast<double>(s.n);
    std::size_t idx = static_cast<std::size_t>(r);
    if (static_cast<double>(idx) < r) ++idx;
    return idx == 0 ? 0 : idx - 1;
  };
  s.p50 = samples[rank(50)];
  s.tail_pct = 50;
  s.tail = s.p50;
  for (double pct : {99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    const std::size_t idx = rank(pct);
    if (s.n - 1 - idx >= 10) {
      s.tail_pct = pct;
      s.tail = samples[idx];
      break;
    }
  }
  return s;
}

std::vector<double> SpanLog::SimDurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(vmmc::sim::ToMicroseconds(s.sim_end - s.sim_begin));
    }
  }
  return out;
}

namespace {

double HistoSum(const vmmc::obs::Registry& m, int num_nodes,
                const std::string& suffix) {
  double sum = 0;
  for (int i = 0; i < num_nodes; ++i) {
    if (const auto* h = m.FindHisto("node" + std::to_string(i) + suffix)) {
      sum += h->sum();
    }
  }
  return sum;
}

}  // namespace

Counters ReadCounters(const vmmc::obs::Registry& m, int num_nodes) {
  Counters c;
  auto nodes = [&](const char* name, const char* suffix) {
    c[name] = static_cast<double>(m.SumCounters("node", suffix));
  };
  nodes("lcp.chunks_sent", ".lcp.chunks_sent");
  nodes("lcp.retransmits", ".lcp.retransmits");
  nodes("lcp.retransmit_timeouts", ".lcp.retransmit_timeouts");
  nodes("lcp.duplicate_chunks", ".lcp.duplicate_chunks");
  nodes("lcp.window_stalls", ".lcp.window_stalls");
  nodes("lcp.acks_sent", ".lcp.acks_sent");
  c["lcp.translate_ns"] = HistoSum(m, num_nodes, ".lcp.translate_ns");
  c["lcp.host_dma_ns"] = HistoSum(m, num_nodes, ".lcp.host_dma_ns");
  nodes("tlb.hit", ".tlb.hit");
  nodes("tlb.miss", ".tlb.miss");
  nodes("driver.tlb_fills", ".driver.tlb_fills");
  nodes("lanai.exec_ns", ".lanai.exec_ns");
  nodes("dma.host.busy_ns", ".dma.host.busy_ns");
  nodes("dma.nettx.busy_ns", ".dma.nettx.busy_ns");
  nodes("nic.crc_errors", ".nic.crc_errors");
  nodes("host.pio_post_ns", ".host.pio_post_ns");
  nodes("host.send_posts", ".host.send_posts");
  nodes("regcache.hit", ".regcache.hit");
  nodes("regcache.miss", ".regcache.miss");
  nodes("regcache.evict", ".regcache.evict");
  nodes("p2p.eager_sends", ".p2p.eager_sends");
  nodes("p2p.rendezvous_sends", ".p2p.rendezvous_sends");
  c["fabric.link_ser_ns"] =
      static_cast<double>(m.SumCounters("fabric.link", ".ser_ns"));
  c["fabric.link_blocked_ns"] =
      static_cast<double>(m.SumCounters("fabric.link", ".blocked_ns"));
  c["fabric.switch_queue_wait_ns"] =
      static_cast<double>(m.SumCounters("fabric.switch", ".queue_wait_ns"));
  c["fabric.hol_stalls"] =
      static_cast<double>(m.SumCounters("fabric.switch", ".hol_stalls"));
  c["fabric.drop_notices"] =
      static_cast<double>(m.CounterValue("fabric.drop_notices"));
  c["fault.drops"] =
      static_cast<double>(m.CounterValue("fault.injected.drops"));
  c["fault.bitflips"] =
      static_cast<double>(m.CounterValue("fault.injected.bitflips"));
  return c;
}

vmmc::Status TimedBoot(vmmc::vmmc_core::Cluster& cluster, Rep& rep) {
  vmmc::sim::Simulator& sim = cluster.simulator();
  const std::int32_t span = rep.spans.Begin("cluster.Boot", 0, -1, sim.now(), true);
  const std::int64_t t0 = HostNs();
  vmmc::Status booted = cluster.Boot();
  rep.boot_s = SecondsSince(t0);
  rep.spans.End(span, sim.now());
  rep.boot_events = sim.events_processed();
  return booted;
}

Counters Diff(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

}  // namespace perfbench
