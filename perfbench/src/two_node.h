// Two nodes on one switch with a 2 MB receive buffer exported on each side
// and imported by the other, plus a 2 MB source buffer per side. The set-up
// sequence is the one the paper benches (fig2/fig3) use, so a ping-pong
// on it reproduces their numbers exactly.
#pragma once

#include <memory>
#include <string>

#include "bench.h"
#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/vmmc/cluster.h"

namespace perfbench {

struct TwoNode {
  static constexpr std::uint32_t kBufferBytes = 2 * 1024 * 1024;

  vmmc::sim::Simulator sim;
  vmmc::Params params;
  std::unique_ptr<vmmc::vmmc_core::Cluster> cluster;
  std::unique_ptr<vmmc::vmmc_core::Endpoint> a, b;
  vmmc::vmmc_core::ImportedBuffer a_to_b{}, b_to_a{};
  vmmc::mem::VirtAddr a_recv = 0, b_recv = 0, a_src = 0, b_src = 0;

  // Boots the cluster, opens both endpoints and cross-imports the
  // buffers. Records boot time and any failure in `rep`.
  bool SetUp(Rep& rep) {
    vmmc::vmmc_core::ClusterOptions options;
    options.num_nodes = 2;
    cluster = std::make_unique<vmmc::vmmc_core::Cluster>(sim, params, options);
    const vmmc::Status booted = TimedBoot(*cluster, rep);
    if (!booted.ok()) return Fail(rep, "boot", booted);
    auto ea = cluster->OpenEndpoint(0, "a");
    auto eb = cluster->OpenEndpoint(1, "b");
    if (!ea.ok()) return Fail(rep, "open a", ea.status());
    if (!eb.ok()) return Fail(rep, "open b", eb.status());
    a = std::move(ea).value();
    b = std::move(eb).value();

    bool done = false;
    vmmc::Status status;
    auto setup = [&]() -> vmmc::sim::Process {
      a_recv = a->AllocBuffer(kBufferBytes).value();
      b_recv = b->AllocBuffer(kBufferBytes).value();
      a_src = a->AllocBuffer(kBufferBytes).value();
      b_src = b->AllocBuffer(kBufferBytes).value();
      vmmc::vmmc_core::ExportOptions xa;
      xa.name = "a-ring";
      auto ida = co_await a->ExportBuffer(a_recv, kBufferBytes, std::move(xa));
      vmmc::vmmc_core::ExportOptions xb;
      xb.name = "b-ring";
      auto idb = co_await b->ExportBuffer(b_recv, kBufferBytes, std::move(xb));
      vmmc::vmmc_core::ImportOptions wait;
      wait.wait = true;
      auto iab = co_await a->ImportBuffer(1, "b-ring", wait);
      auto iba = co_await b->ImportBuffer(0, "a-ring", wait);
      if (!ida.ok()) status = ida.status();
      if (!idb.ok()) status = idb.status();
      if (!iab.ok()) status = iab.status();
      if (!iba.ok()) status = iba.status();
      if (status.ok()) {
        a_to_b = iab.value();
        b_to_a = iba.value();
      }
      done = true;
    };
    sim.Spawn(setup());
    if (!Drive(sim, [&] { return done; }, vmmc::sim::Seconds(10), nullptr)) {
      return Fail(rep, "buffer setup", vmmc::InternalError("stalled"));
    }
    if (!status.ok()) return Fail(rep, "buffer setup", status);
    return true;
  }

  static bool Fail(Rep& rep, const char* what, const vmmc::Status& s) {
    rep.Fail(std::string("two-node ") + what + ": " + s.ToString());
    return false;
  }
};

}  // namespace perfbench
