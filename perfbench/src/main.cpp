// The repo benchmark: runs one workload against the public library on the
// serial engine, checks every output, and prints each metric by name with
// its unit. The last line of stdout is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from repetitions with span recording on) and the tracing overhead.
//
//   vmmc_perfbench --workload allreduce64 --seed 1 --seconds 10 --trace 0
//
// A run repeats {fresh cluster, set-up, warm-up, timed phase over the
// seed's fixed operation list} until --seconds of timed phase have passed
// (at least kMinReps times). Simulated results must be bit-identical
// across the repetitions; host-time results are reported as medians.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// Paper values (PAPER.md) and what the paper benches print today
// (bench/fig2_latency at 4 B, bench/fig3_bandwidth ping-pong at 1 MB).
constexpr double kPaperLat4Us = 9.8;
constexpr double kPaperBw1mMbs = 108.4;
constexpr double kFig2Lat4Us = 9.93;
constexpr double kFig3Bw1mMbs = 107.0;
constexpr double kCrossCheckTolerance = 0.01;

constexpr int kMinReps = 3;
constexpr int kMinTraceReps = 4;  // two untraced, two traced
constexpr int kMaxReps = 1000;
constexpr double kWallBudgetS = 140;  // stop starting repetitions after this

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // base of a ratio, percentile of a tail, ...
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string Ratio(double num, double den, const char* num_name,
                  const char* den_name, double* out) {
  *out = den > 0 ? num / den : 0;
  return Fmt(num) + " " + num_name + " / " + Fmt(den) + " " + den_name;
}

// Everything of a repetition that the simulation determines, flattened
// for the repeat-identity check (latencies are compared separately).
std::map<std::string, double> Signature(const Rep& r) {
  std::map<std::string, double> s(r.sim.begin(), r.sim.end());
  for (const auto& [k, v] : r.counters) s["counter." + k] = v;
  s["ops"] = static_cast<double>(r.ops);
  s["failed"] = static_cast<double>(r.failed);
  s["sim.events"] = static_cast<double>(r.events);
  s["cluster.boot_events"] = static_cast<double>(r.boot_events);
  s["goodput"] = r.goodput_mbs;
  return s;
}

// Self time per layer (the span-name prefix before the first '.'): a
// span's duration minus the durations of its direct children. Host self
// time is summed over exclusive (main-loop) spans only.
struct SelfTime {
  double sim_us = 0;
  double host_ms = 0;
  std::uint64_t spans = 0;
  std::uint64_t exclusive = 0;
};
std::map<std::string, SelfTime> SelfTimes(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<double> child_sim(spans.size(), 0), child_host(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_sim[p] += static_cast<double>(s.sim_end - s.sim_begin);
    child_host[p] += static_cast<double>(s.host_end - s.host_begin);
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    SelfTime& t = out[name.substr(0, name.find('.'))];
    t.sim_us += (static_cast<double>(s.sim_end - s.sim_begin) - child_sim[i]) / 1e3;
    ++t.spans;
    if (s.exclusive) {
      t.host_ms +=
          (static_cast<double>(s.host_end - s.host_begin) - child_host[i]) / 1e6;
      ++t.exclusive;
    }
  }
  return out;
}

void WriteTrace(const std::string& path, const SpanLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const auto& spans = log.spans();
  const std::int64_t host0 = spans.empty() ? 0 : spans.front().host_begin;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"op\":%u,\"exclusive\":%s,\"host_begin_us\":%.3f,"
                 "\"host_dur_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.op,
                 static_cast<double>(s.sim_begin) / 1e3,
                 static_cast<double>(s.sim_end - s.sim_begin) / 1e3, i,
                 s.parent, s.op, s.exclusive ? "true" : "false",
                 static_cast<double>(s.host_begin - host0) / 1e3,
                 static_cast<double>(s.host_end - s.host_begin) / 1e3);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

std::string Fingerprint(std::uint64_t seed, const std::string& workload) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"compiler\": \"GCC %s\", \"build_type\": "
                "\"%s\", \"engine\": \"serial\", \"workload\": \"%s\", "
                "\"seed\": %llu}",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, workload.c_str(),
                static_cast<unsigned long long>(seed));
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vmmc_perfbench --workload "
               "allreduce64|pingpong_stream|rdma_kv_lossy --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, WorkloadFn> workloads = {
      {"allreduce64", RunAllreduce64},
      {"pingpong_stream", RunPingpongStream},
      {"rdma_kv_lossy", RunRdmaKvLossy},
  };
  auto wl = workloads.find(workload);
  if (wl == workloads.end() || argc % 2 != 1) return Usage();

  const std::int64_t wall0 = HostNs();
  const std::string fingerprint = Fingerprint(seed, workload);
  std::printf("host: %s\n", fingerprint.c_str());

  // Model cross-check against the paper benches.
  const PaperCheck pc = RunPaperCheck();
  std::uint64_t check_failures = 0;
  std::vector<std::string> check_errors;
  const double lat_dev = std::fabs(pc.lat4_us - kFig2Lat4Us) / kFig2Lat4Us;
  const double bw_dev = std::fabs(pc.bw1m_mbs - kFig3Bw1mMbs) / kFig3Bw1mMbs;
  if (lat_dev > kCrossCheckTolerance || bw_dev > kCrossCheckTolerance) {
    ++check_failures;
    check_errors.push_back("paper cross-check: 4 B latency " + Fmt(pc.lat4_us) +
                           " us (fig2 " + Fmt(kFig2Lat4Us) + "), 1 MB bandwidth " +
                           Fmt(pc.bw1m_mbs) + " MB/s (fig3 " + Fmt(kFig3Bw1mMbs) +
                           ")");
  }
  const double paper_err_pct =
      100.0 * std::max(std::fabs(pc.lat4_us - kPaperLat4Us) / kPaperLat4Us,
                       std::fabs(pc.bw1m_mbs - kPaperBw1mMbs) / kPaperBw1mMbs);

  // Repetitions. Each is checked against the first as soon as it ends —
  // its simulated results and spans must be bit-identical — and then only
  // its host-side numbers are kept, so memory does not grow with the
  // number of repetitions.
  auto same_sim_spans = [](const SpanLog& a, const SpanLog& b) {
    return std::equal(a.spans().begin(), a.spans().end(), b.spans().begin(),
                      b.spans().end(), [](const Span& x, const Span& y) {
                        return std::strcmp(x.name, y.name) == 0 && x.op == y.op &&
                               x.parent == y.parent && x.sim_begin == y.sim_begin &&
                               x.sim_end == y.sim_end;
                      });
  };
  std::vector<Rep> reps;
  std::map<std::string, double> sig0;
  std::size_t traced_index = 0;  // first traced repetition; rep 0 never is
  std::uint64_t attempted = 0;
  std::uint64_t failed = check_failures;
  std::vector<std::string> errors = check_errors;
  double timed_total = 0;
  const int min_reps = trace ? kMinTraceReps : kMinReps;
  for (int i = 0; i < kMaxReps; ++i) {
    const double elapsed = SecondsSince(wall0);
    if (i >= min_reps && timed_total >= seconds) break;
    if (i >= min_reps && elapsed + 1.5 * elapsed / i > kWallBudgetS) break;
    RunConfig cfg;
    cfg.seed = seed;
    cfg.trace = trace && i % 2 == 1;
    Rep r = wl->second(cfg);
    r.traced = cfg.trace;
    timed_total += r.timed_s;
    attempted += r.ops;
    const std::uint64_t failed_before = failed;
    failed += r.failed;
    const std::string tag = "rep " + std::to_string(i) + ": ";
    for (const std::string& e : r.errors) errors.push_back(tag + e);
    if (i == 0) {
      sig0 = Signature(r);
    } else {
      const auto sig = Signature(r);
      for (const auto& [k, v] : sig0) {
        auto it = sig.find(k);
        if (it == sig.end() || it->second != v) {
          ++failed;
          errors.push_back(tag + "differs from rep 0 in simulated value " + k);
          break;
        }
      }
      if (r.latency_us != reps.front().latency_us) {
        ++failed;
        errors.push_back(tag + "simulated latencies differ from rep 0");
      }
      r.latency_us = {};
    }
    if (cfg.trace && traced_index == 0) {
      traced_index = reps.size();
    } else if (cfg.trace) {
      if (!same_sim_spans(r.spans, reps[traced_index].spans)) {
        ++failed;
        errors.push_back(tag + "simulated spans differ from the first traced rep");
      }
      r.spans = SpanLog(false);
    }
    reps.push_back(std::move(r));
    if (failed > failed_before) break;  // no point repeating a broken run
  }
  const Rep& first = reps.front();
  const Rep* traced = traced_index > 0 ? &reps[traced_index] : nullptr;
  if (attempted == 0) attempted = 1;
  const bool correct = failed == 0;

  // Host-side medians.
  std::vector<double> setup, rate_off, rate_on, engine, ns_per_event, allocs,
      boot;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    const double rate = r.timed_s > 0 ? static_cast<double>(r.ops) / r.timed_s : 0;
    (r.traced ? rate_on : rate_off).push_back(rate);
    if (trace && !r.traced) continue;
    engine.push_back(r.engine_s);
    ns_per_event.push_back(r.events > 0 ? r.engine_s * 1e9 / r.events : 0);
    allocs.push_back(r.ops > 0 ? static_cast<double>(r.allocs) / r.ops : 0);
    boot.push_back(r.boot_s);
  }
  const Summary lat = Summarize(first.latency_us);
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup), "s",
       "median of " + std::to_string(setup.size()) + " set-ups"},
      {"ops_per_s", Median(rate_off), "1/s",
       "median of " + std::to_string(rate_off.size()) + " timed phases, " +
           std::to_string(first.ops) + " ops each"},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
      {"sim_p50_us", lat.p50, "us", std::to_string(lat.n) + " samples"},
      {"sim_tail_us", lat.tail, "us",
       "p" + Fmt(lat.tail_pct) + " of " + std::to_string(lat.n) + " samples"},
      {"sim_goodput_mbs", first.goodput_mbs, "MB/s", "payload bytes only"},
      {"paper_err_pct", paper_err_pct, "%",
       "4 B one-way " + Fmt(pc.lat4_us) + " us vs 9.8, 1 MB ping-pong " +
           Fmt(pc.bw1m_mbs) + " MB/s vs 108.4"},
      {"fail_frac", fail_frac, "fraction",
       Fmt(static_cast<double>(failed)) + " failed / " +
           Fmt(static_cast<double>(attempted)) + " attempted"},
  };

  const Counters& c = first.counters;
  auto cv = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  auto sv = [&](const char* k) {
    auto it = first.sim.find(k);
    return it == first.sim.end() ? 0.0 : it->second;
  };
  std::vector<Metric> layer;
  const double ops = static_cast<double>(first.ops);
  const double events = static_cast<double>(first.events);
  layer.push_back({"sim.events", events, "count", "timed phase"});
  layer.push_back({"sim.events_per_op", ops > 0 ? events / ops : 0, "count",
                   Fmt(events) + " events / " + Fmt(ops) + " ops"});
  layer.push_back({"sim.host_ns_per_event", Median(ns_per_event), "ns", ""});
  layer.push_back({"sim.host_run_s", Median(engine), "s", "inside RunUntil"});
  layer.push_back({"proc.allocs_per_op", Median(allocs), "count", ""});
  layer.push_back({"cluster.boot_s", Median(boot), "s", "Cluster::Boot"});
  layer.push_back({"cluster.boot_events",
                   static_cast<double>(first.boot_events), "count", ""});
  for (const char* k :
       {"coll.allreduce_small_us.p50", "coll.allreduce_small_us.tail",
        "coll.allreduce_large_us.p50", "coll.allreduce_large_us.tail",
        "coll.rank_skew_us", "coll.link_setup_us"}) {
    layer.push_back({k, sv(k), "us", first.sim.count(k) ? "" : "n/a"});
  }
  for (const char* k : {"p2p.eager_sends", "p2p.rendezvous_sends"}) {
    layer.push_back({k, cv(k), "count", ""});
  }
  for (const auto& [metric, span] :
       std::vector<std::pair<std::string, std::string>>{
           {"api.send_us", "api.SendMsg"},
           {"api.rdma_read_us", "api.RdmaRead"},
           {"api.rdma_write_us", "api.RdmaWrite"},
           {"api.register_us", "api.RegisterMemory"}}) {
    const Summary s =
        traced != nullptr ? Summarize(traced->spans.SimDurationsUs(span))
                          : Summary{};
    const std::string base =
        s.n == 0 ? "n/a: no " + span + " calls in this workload"
                 : span + ", " + std::to_string(s.n) + " calls";
    layer.push_back({metric + ".p50", s.p50, "us", base});
    layer.push_back({metric + ".tail", s.tail, "us",
                     s.n == 0 ? base : "p" + Fmt(s.tail_pct) + " of " + base});
  }
  double ratio = 0;
  for (const char* k : {"regcache.hit", "regcache.miss", "regcache.evict"}) {
    layer.push_back({k, cv(k), "count", ""});
  }
  std::string base = Ratio(cv("regcache.hit"),
                           cv("regcache.hit") + cv("regcache.miss"), "hits",
                           "lookups", &ratio);
  layer.push_back({"regcache.hit_ratio", ratio, "ratio", base});
  for (const char* k : {"lcp.chunks_sent", "lcp.retransmits",
                        "lcp.retransmit_timeouts", "lcp.duplicate_chunks",
                        "lcp.window_stalls", "lcp.acks_sent"}) {
    layer.push_back({k, cv(k), "count", ""});
  }
  base = Ratio(cv("lcp.retransmits"), cv("lcp.chunks_sent"), "retransmits",
               "chunks sent", &ratio);
  layer.push_back({"lcp.waste_ratio", ratio, "ratio", base});
  layer.push_back({"lcp.translate_ns", cv("lcp.translate_ns"), "ns", "sim"});
  layer.push_back({"lcp.host_dma_ns", cv("lcp.host_dma_ns"), "ns", "sim"});
  layer.push_back({"tlb.hit", cv("tlb.hit"), "count", ""});
  layer.push_back({"tlb.miss", cv("tlb.miss"), "count", ""});
  base = Ratio(cv("tlb.hit"), cv("tlb.hit") + cv("tlb.miss"), "hits",
               "lookups", &ratio);
  layer.push_back({"tlb.hit_ratio", ratio, "ratio", base});
  layer.push_back({"driver.tlb_fills", cv("driver.tlb_fills"), "count", ""});
  for (const char* k : {"lanai.exec_ns", "dma.host.busy_ns", "dma.nettx.busy_ns"}) {
    layer.push_back({k, cv(k), "ns", "sim"});
  }
  layer.push_back({"nic.crc_errors", cv("nic.crc_errors"), "count", ""});
  layer.push_back({"host.pio_post_ns", cv("host.pio_post_ns"), "ns", "sim"});
  layer.push_back({"host.send_posts", cv("host.send_posts"), "count", ""});
  for (const char* k : {"fabric.link_ser_ns", "fabric.link_blocked_ns",
                        "fabric.switch_queue_wait_ns"}) {
    layer.push_back({k, cv(k), "ns", "sim"});
  }
  layer.push_back({"fabric.hol_stalls", cv("fabric.hol_stalls"), "count", ""});
  layer.push_back(
      {"fabric.drop_notices", cv("fabric.drop_notices"), "count", ""});
  layer.push_back({"fault.drops", cv("fault.drops"), "count", ""});
  layer.push_back({"fault.bitflips", cv("fault.bitflips"), "count", ""});
  const double off = Median(rate_off);
  const double on = Median(rate_on);
  layer.push_back({"trace.overhead_pct", off > 0 ? 100.0 * (off - on) / off : 0,
                   "%",
                   "ops/s untraced " + Fmt(off) + " vs traced " + Fmt(on)});
  layer.push_back({"trace.spans",
                   traced != nullptr
                       ? static_cast<double>(traced->spans.spans().size())
                       : 0,
                   "count", "one traced repetition"});

  // Human-readable report.
  std::printf("workload: %s  seed: %llu  repetitions: %zu  (%s)\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              reps.size(), trace ? "alternating untraced/traced" : "untraced");
  std::printf("cross-check: 4 B one-way %.4f us (fig2 %.2f), 1 MB ping-pong "
              "%.4f MB/s (fig3 %.1f)\n",
              pc.lat4_us, kFig2Lat4Us, pc.bw1m_mbs, kFig3Bw1mMbs);
  std::printf("\nend-to-end:\n");
  for (const Metric& m : e2e) {
    std::printf("  %-30s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (trace) {
    std::printf("\nper-layer:\n");
    for (const Metric& m : layer) {
      std::printf("  %-30s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    if (traced != nullptr) {
      std::printf("\nself time per layer, one traced repetition (simulated "
                  "time summed over concurrent processes; host time only for "
                  "calls made from the main loop):\n");
      for (const auto& [name, t] : SelfTimes(traced->spans)) {
        std::printf("  %-10s %8llu spans  sim %16.3f us  host %s\n",
                    name.c_str(), static_cast<unsigned long long>(t.spans),
                    t.sim_us,
                    t.exclusive > 0 ? (Fmt(t.host_ms) + " ms").c_str() : "-");
      }
    }
  }
  for (const std::string& e : errors) std::printf("FAILED: %s\n", e.c_str());

  // Result file (fingerprint + every metric) and, traced, the span log.
  ::mkdir(".bench_out", 0755);
  const std::string stem = ".bench_out/" + workload + "-seed" +
                           std::to_string(seed) + (trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"correct\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu, \"repetitions\": %zu, \"metrics\": {",
                 fingerprint.c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), reps.size());
    bool comma = false;
    for (const auto* list : {&e2e, &layer}) {
      for (const Metric& m : *list) {
        std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                     "\"note\": \"%s\"}",
                     comma ? "," : "", m.name.c_str(), m.value, m.unit.c_str(),
                     m.note.c_str());
        comma = true;
      }
    }
    std::fprintf(f, "\n}, \"per_repetition\": [");
    for (std::size_t i = 0; i < reps.size(); ++i) {
      std::fprintf(f, "%s\n  {\"traced\": %s, \"setup_s\": %.9g, \"timed_s\": %.9g, "
                   "\"ops\": %llu}",
                   i == 0 ? "" : ",", reps[i].traced ? "true" : "false",
                   reps[i].setup_s, reps[i].timed_s,
                   static_cast<unsigned long long>(reps[i].ops));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }
  if (traced != nullptr) WriteTrace(stem + "-spans.json", traced->spans);

  // The result line: end-to-end metrics untraced, per-layer traced.
  // fail_frac is carried by attempted/failed, not as a metric.
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool comma = false;
  for (const Metric& m : trace ? layer : e2e) {
    if (m.name == "fail_frac") continue;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  comma ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
