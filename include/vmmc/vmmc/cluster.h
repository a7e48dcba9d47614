// Cluster assembly: the paper's experimental platform — PCI PCs with
// Myrinet interfaces on a Myrinet switch, plus an Ethernet for the daemons
// (§5.1). Boot() performs the §4.3 sequence: load the mapping LCP on every
// interface, map and verify the network, then replace the mapping LCP with
// the VMMC LCP and start daemons and drivers.
//
// Two execution substrates (see vmmc/runtime.h for the env-driven
// front-end):
//  - Single simulator (the historical ctor): every component shares one
//    event queue; behaviour is bit-identical to all prior releases.
//  - Partitioned (the ParallelEngine ctor): each node (host + NIC +
//    daemon), each switch, and the Ethernet segment becomes a logical
//    process on its own engine shard; shard assignment is a pure function
//    of the topology (nothing about thread counts), so any worker count
//    replays the identical execution. Drive a partitioned cluster through
//    DriveUntil/DriveUntilQuiescent, never through simulator().Run*.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vmmc/ethernet/ethernet.h"
#include "vmmc/host/machine.h"
#include "vmmc/lanai/nic_card.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/parallel.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/vmmc/api.h"
#include "vmmc/vmmc/daemon.h"
#include "vmmc/vmmc/driver.h"
#include "vmmc/vmmc/lcp.h"

namespace vmmc::vmmc_core {

// Fabric shape the cluster stands up. The first two predate the general
// topology builder (myrinet/topology.h) and keep their historical
// behaviour; the rest map straight onto TopologyKind and scale to
// tens of nodes (fat tree of 8-port switches: 32; of 16-port: 128).
enum class Topology { kSingleSwitch, kSwitchChain, kFatTree, kRing, kMesh };

struct ClusterOptions {
  int num_nodes = 4;  // the paper's testbed size
  Topology topology = Topology::kSingleSwitch;
  int chain_switches = 2;  // for kSwitchChain
  int switch_ports = 8;    // crossbar radix for kFatTree/kRing/kMesh
  std::uint64_t mem_bytes_per_node = 16ull * 1024 * 1024;

  // Shorthand for the scaling topologies: "fattree:16@8" etc., see
  // myrinet::ParseTopologySpec.
  static Result<ClusterOptions> FromSpec(const std::string& spec);
};

class Cluster {
 public:
  struct Node {
    std::unique_ptr<host::Machine> machine;
    std::unique_ptr<lanai::NicCard> nic;
    ethernet::Interface* eth = nullptr;
    std::unique_ptr<VmmcDaemon> daemon;
    std::unique_ptr<VmmcDriver> driver;
    VmmcLcp* lcp = nullptr;  // owned by the NIC once loaded
    RouteTable routes;
  };

  Cluster(sim::Simulator& sim, const Params& params, ClusterOptions options);
  // Partitioned cluster: allocates one engine shard per node, per switch,
  // and for the Ethernet segment (plus a control shard the boot sequence
  // and OpenEndpoint structures live on). The engine must outlive the
  // cluster and must not have been run yet.
  Cluster(sim::ParallelEngine& engine, const Params& params,
          ClusterOptions options);
  // Ends the run on every simulator the cluster executes on
  // (Simulator::Shutdown) while the nodes are still alive, so the
  // forever-running LCP, pump and daemon frames — and any workload frame
  // still suspended — are freed instead of leaked.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs the boot sequence to completion (drives the simulator).
  Status Boot();
  bool booted() const { return booted_; }
  sim::Tick boot_time() const { return boot_time_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return nodes_.at(static_cast<std::size_t>(i)); }
  sim::Simulator& simulator() { return sim_; }

  // --- substrate-neutral driving (works for both ctors) ---
  bool parallel() const { return engine_ != nullptr; }
  sim::ParallelEngine* engine() { return engine_; }
  // The simulator node `i`'s components execute on. Workloads (bench
  // drivers, test harnesses) MUST spawn a node's processes here; on a
  // single-simulator cluster this is simulator() itself.
  sim::Simulator& node_sim(int i) {
    return engine_ != nullptr
               ? engine_->shard(node_shards_.at(static_cast<std::size_t>(i)))
               : sim_;
  }
  // Runs until `pred` holds (evaluated between events / at window
  // boundaries); returns false if the system quiesced first.
  bool DriveUntil(std::function<bool()> pred);
  // Runs until no events remain anywhere; returns events dispatched.
  std::uint64_t DriveUntilQuiescent();
  // Fleet-wide clock (max over shards) / total events dispatched / total
  // WaitChange poll phases passed without a dispatch.
  sim::Tick time_now() const;
  std::uint64_t events_processed() const;
  std::uint64_t watch_steps() const;
  // Folds every shard's metrics into `out` (single-simulator: the one
  // registry). Use for dumps; per-instrument reads on a quiesced cluster
  // may also go directly to the owning shard's registry.
  void MergeMetricsInto(obs::Registry& out) const;

  myrinet::Fabric& fabric() { return *fabric_; }
  ethernet::Segment& ethernet() { return *ethernet_; }
  const Params& params() const { return params_; }
  // Tests and benches tweak fault-injection knobs after boot (the fabric
  // and machines read these parameters live).
  Params& mutable_params() { return params_; }

  // Creates a user process on `node_id` and opens a VMMC endpoint for it.
  Result<std::unique_ptr<Endpoint>> OpenEndpoint(int node_id,
                                                 const std::string& name);

 private:
  // Shared tail of both ctors: topology, nodes, interfaces, daemons.
  void Assemble();

  sim::Simulator& sim_;
  sim::ParallelEngine* engine_ = nullptr;  // null = single-simulator mode
  Params params_;
  ClusterOptions options_;
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::unique_ptr<ethernet::Segment> ethernet_;
  std::vector<Node> nodes_;
  std::vector<int> node_shards_;  // node id -> engine shard (parallel only)
  bool booted_ = false;
  sim::Tick boot_time_ = 0;
};

}  // namespace vmmc::vmmc_core
