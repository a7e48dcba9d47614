// Tests for the Myrinet fabric: CRC-8 hardware, link timing/occupancy,
// switch routing, multi-hop topologies and error injection.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <span>
#include <vector>

#include "vmmc/myrinet/crc8.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::myrinet {
namespace {

using sim::Tick;

TEST(Crc8Test, KnownVectors) {
  // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc8(digits), 0xF4);
  EXPECT_EQ(Crc8({}), 0x00);
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_EQ(Crc8(zero), 0x00);
}

TEST(Crc8Test, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  std::iota(data.begin(), data.end(), 0);
  const std::uint8_t whole = Crc8(data);
  // Every cut point, so each split lands at every offset within a
  // slicing-by-8 block.
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::uint8_t head = Crc8Update(0, std::span(data).subspan(0, cut));
    EXPECT_EQ(Crc8Update(head, std::span(data).subspan(cut)), whole)
        << "cut " << cut;
  }
}

TEST(Crc8Test, DetectsByteSwapsAndTruncation) {
  // CRC-8 is position-sensitive: reordering or shortening the message
  // changes the checksum (the properties the NIC relies on to reject
  // misassembled packets).
  std::vector<std::uint8_t> data = {0x10, 0x32, 0x54, 0x76, 0x98};
  const std::uint8_t good = Crc8(data);
  auto swapped = data;
  std::swap(swapped[1], swapped[3]);
  EXPECT_NE(Crc8(swapped), good);
  EXPECT_NE(Crc8(std::span(data).subspan(0, 4)), good);
  // Incremental over an empty prefix is the identity.
  EXPECT_EQ(Crc8Update(Crc8Update(0, {}), data), good);
}

TEST(Crc8Test, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint8_t good = Crc8(data);
  for (int byte = 0; byte < 64; byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = data;
      bad[static_cast<size_t>(byte)] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc8(bad), good);
    }
  }
}

// The byte-at-a-time table walk Crc8Update used before slicing-by-8: the
// oracle the sliced kernel must match on every input.
std::uint8_t ReferenceCrc8(std::uint8_t crc, std::span<const std::uint8_t> data) {
  static const auto table = [] {
    std::array<std::uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) {
      auto c = static_cast<std::uint8_t>(i);
      for (int bit = 0; bit < 8; ++bit) {
        c = static_cast<std::uint8_t>((c & 0x80) ? (c << 1) ^ 0x07 : c << 1);
      }
      t[static_cast<std::size_t>(i)] = c;
    }
    return t;
  }();
  for (std::uint8_t byte : data) crc = table[crc ^ byte];
  return crc;
}

std::vector<std::uint8_t> RandomBytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.NextU64());
  return v;
}

TEST(Crc8Test, SlicedKernelMatchesByteLoopOnEveryShortLength) {
  sim::Rng rng(13);
  const auto data = RandomBytes(rng, 64);
  for (std::size_t len = 0; len <= 64; ++len) {
    const auto span = std::span(data).subspan(0, len);
    for (int init : {0x00, 0x5A, 0xFF}) {
      const auto crc = static_cast<std::uint8_t>(init);
      ASSERT_EQ(Crc8Update(crc, span), ReferenceCrc8(crc, span))
          << "len " << len << " init " << init;
    }
  }
}

TEST(Crc8Test, SlicedKernelMatchesByteLoopOnRandomInputs) {
  sim::Rng rng(2024);
  const auto data = RandomBytes(rng, 9 * 1024 + 8);
  for (int i = 0; i < 10000; ++i) {
    // Every start alignment 0..7 (relative to the buffer start) and a
    // random initial register, with lengths up to 9 KB.
    const auto offset = static_cast<std::size_t>(i % 8);
    const auto len = static_cast<std::size_t>(rng.UniformU64(9 * 1024 + 1));
    const auto crc = static_cast<std::uint8_t>(rng.NextU64());
    const auto span = std::span(data).subspan(offset, len);
    ASSERT_EQ(Crc8Update(crc, span), ReferenceCrc8(crc, span))
        << "offset " << offset << " len " << len << " init " << int{crc};
  }
}

// Two single-bit flips in one packet go unnoticed exactly when their
// distance in wire bit order is a multiple of 127: the error polynomial is
// x^i (x^d + 1), and x^d = 1 mod x^8+x^2+x+1 iff 127 divides d, 127 being
// the order of x modulo the generator. (DESIGN.md, fault model.)
TEST(Crc8Test, TwoBitFlipsPassExactlyAtMultiplesOf127) {
  sim::Rng rng(99);
  Packet good;
  good.payload = RandomBytes(rng, 1024);
  good.StampCrc();
  const std::size_t bits = good.payload.size() * 8;
  // Bit i in wire order: byte i/8, most significant bit first (the order
  // the CRC shift register consumes them in).
  auto flip = [](Packet& p, std::size_t i) {
    p.payload.MutableData()[i / 8] ^= static_cast<std::uint8_t>(0x80u >> (i % 8));
  };
  for (std::size_t first : {std::size_t{0}, std::size_t{3}, std::size_t{1001},
                            std::size_t{4096}, bits - 301}) {
    for (std::size_t d = 1; d <= 300; ++d) {
      Packet bad = good;
      flip(bad, first);
      flip(bad, first + d);
      EXPECT_EQ(bad.CrcOk(), d % 127 == 0) << "first " << first << " d " << d;
    }
  }
}

TEST(PacketTest, WireSizeAndCrcStamp) {
  Packet p;
  p.route = {1, 2};
  p.payload = {10, 20, 30};
  EXPECT_EQ(p.wire_bytes(), 2u + 3u + 1u);
  p.StampCrc();
  EXPECT_TRUE(p.CrcOk());
  p.payload.MutableData()[1] ^= 0x40;
  EXPECT_FALSE(p.CrcOk());
}

// Test endpoint recording deliveries.
class Sink : public Endpoint {
 public:
  explicit Sink(sim::Simulator& sim) : sim_(sim) {}
  void OnPacket(Packet packet, Tick tail_time, Link*) override {
    head_times.push_back(sim_.now());
    tail_times.push_back(tail_time);
    packets.push_back(std::move(packet));
  }
  sim::Simulator& sim_;
  std::vector<Packet> packets;
  std::vector<Tick> head_times;
  std::vector<Tick> tail_times;
};

class FabricTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
};

TEST_F(FabricTest, SingleSwitchDeliveryTimingAndIntegrity) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());

  auto route = fabric.ComputeRoute(na, nb);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().size(), 1u);  // one switch traversed

  Packet p;
  p.route = route.value();
  p.payload.resize(1000);
  std::iota(p.payload.MutableData(), p.payload.MutableData() + 1000,
            std::uint8_t{0});
  auto sent_payload = p.payload;
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  sim_.Run();

  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_TRUE(b.packets[0].CrcOk());
  EXPECT_EQ(b.packets[0].payload, sent_payload);
  EXPECT_TRUE(b.packets[0].route.empty()) << "route fully consumed";
  EXPECT_EQ(a.packets.size(), 0u);

  // Timing: wire = 1 route byte + 1000 payload + crc on first link; the
  // second link carries 1001 bytes (route byte consumed). Head through two
  // links and one switch; tail = head + serialization of the last hop.
  const Tick ser1 = sim::NsForBytes(1002, params_.net.link_mb_s);
  const Tick ser2 = sim::NsForBytes(1001, params_.net.link_mb_s);
  const Tick expect_head =
      params_.net.link_latency + params_.net.switch_latency + params_.net.link_latency;
  EXPECT_EQ(b.head_times[0], expect_head);
  EXPECT_EQ(b.tail_times[0], expect_head + ser2);
  (void)ser1;
}

TEST_F(FabricTest, InOrderDeliveryUnderBackToBackTraffic) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();

  for (std::uint8_t i = 0; i < 100; ++i) {
    Packet p;
    p.route = route;
    p.payload.assign(200, i);
    ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  }
  sim_.Run();
  ASSERT_EQ(b.packets.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) {
    EXPECT_EQ(b.packets[i].payload[0], i) << "out of order delivery";
  }
  // Tails must be spaced at least one serialization time apart (occupancy).
  const Tick ser = sim::NsForBytes(201, params_.net.link_mb_s);
  for (size_t i = 1; i < b.tail_times.size(); ++i) {
    EXPECT_GE(b.tail_times[i] - b.tail_times[i - 1], ser - 1);
  }
}

TEST_F(FabricTest, LinkBandwidthApproaches160MBs) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();

  const int kPackets = 256;
  const std::size_t kBytes = 4096;
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.route = route;
    p.payload.assign(kBytes, 0x55);
    ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  }
  sim_.Run();
  ASSERT_EQ(b.packets.size(), static_cast<size_t>(kPackets));
  const double bw = sim::MBPerSec(kPackets * kBytes, b.tail_times.back());
  EXPECT_GT(bw, 150.0);
  EXPECT_LE(bw, 160.5);
}

TEST_F(FabricTest, SwitchChainMultiHopRoutes) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSwitchChain(fabric, /*num_switches=*/3, /*per_switch=*/2);
  ASSERT_EQ(plan.nic_slots.size(), 6u);
  std::vector<std::unique_ptr<Sink>> sinks;
  for (size_t i = 0; i < plan.nic_slots.size(); ++i) {
    sinks.push_back(std::make_unique<Sink>(sim_));
    int id = fabric.AddNic(sinks.back().get());
    ASSERT_TRUE(fabric.ConnectNic(id, plan.nic_slots[i].switch_id,
                                  plan.nic_slots[i].port).ok());
  }
  // NIC 0 is on switch 0, NIC 5 on switch 2: the route crosses 3 switches.
  auto route = fabric.ComputeRoute(0, 5);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().size(), 3u);

  // All-pairs connectivity.
  for (int s = 0; s < 6; ++s) {
    for (int d = 0; d < 6; ++d) {
      if (s == d) continue;
      auto r = fabric.ComputeRoute(s, d);
      ASSERT_TRUE(r.ok()) << s << "->" << d;
      Packet p;
      p.route = r.value();
      p.payload = {static_cast<std::uint8_t>(s), static_cast<std::uint8_t>(d)};
      ASSERT_TRUE(fabric.Inject(s, std::move(p)).ok());
    }
  }
  sim_.Run();
  for (int d = 0; d < 6; ++d) {
    EXPECT_EQ(sinks[static_cast<size_t>(d)]->packets.size(), 5u) << "nic " << d;
    for (const auto& p : sinks[static_cast<size_t>(d)]->packets) {
      EXPECT_EQ(p.payload[1], d) << "misrouted packet";
      EXPECT_TRUE(p.CrcOk());
    }
  }
}

TEST_F(FabricTest, InvalidRouteDropsAtSwitch) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_);
  int na = fabric.AddNic(&a);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());

  Packet p;
  p.route = {7};  // unconnected port
  p.payload = {1};
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  Packet q;  // empty route
  q.payload = {2};
  ASSERT_TRUE(fabric.Inject(na, std::move(q)).ok());
  sim_.Run();
  EXPECT_EQ(fabric.switch_at(0).dropped(), 2u);
  EXPECT_EQ(a.packets.size(), 0u);
}

TEST_F(FabricTest, ErrorInjectionCorruptsCrcButDelivers) {
  Params params;
  params.net.packet_error_rate = 1.0;  // every packet corrupted
  Fabric fabric(sim_, params.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();
  Packet p;
  p.route = route;
  p.payload.assign(100, 0xEE);
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  sim_.Run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_FALSE(b.packets[0].CrcOk()) << "hardware CRC must flag the corruption";
}

TEST_F(FabricTest, BadIdsRejected) {
  Fabric fabric(sim_, params_.net);
  BuildSingleSwitch(fabric);
  EXPECT_FALSE(fabric.ConnectNic(0, 0, 0).ok());  // no such nic
  Sink a(sim_);
  int na = fabric.AddNic(&a);
  EXPECT_FALSE(fabric.ConnectNic(na, 5, 0).ok());   // no such switch
  EXPECT_FALSE(fabric.ConnectNic(na, 0, 99).ok());  // no such port
  EXPECT_FALSE(fabric.Inject(na, Packet{}).ok());   // not connected yet
  EXPECT_FALSE(fabric.ComputeRoute(na, na + 1).ok());
  ASSERT_TRUE(fabric.ConnectNic(na, 0, 3).ok());
  EXPECT_FALSE(fabric.ConnectNic(na, 0, 4).ok()) << "double connect";
}

}  // namespace
}  // namespace vmmc::myrinet
