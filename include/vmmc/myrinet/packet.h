// Myrinet packets: a source route (one output-port byte consumed per
// switch, standard Myrinet format, §4.5), an opaque payload, and a CRC-8
// appended by the link hardware.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <span>

#include "vmmc/myrinet/crc8.h"
#include "vmmc/util/buffer.h"

namespace vmmc::myrinet {

// The remaining source route: front() is the output port at the next
// switch. The bytes live inline (a route is copied into every packet, so
// a heap-backed route would cost an allocation per packet); kCapacity
// covers the longest route any topology here builds with room to spare
// (a 6-switch chain, mesh:24@8 and ring:16@8 need at most 6 bytes).
// Nothing silently truncates or spills: Fabric::ComputeRoute returns an
// error for a longer path, assign() and push_back() report a route that
// would not fit, and the list constructor aborts on one.
class Route {
 public:
  static constexpr std::size_t kCapacity = 15;

  Route() = default;
  Route(std::initializer_list<std::uint8_t> bytes) {
    if (!assign(std::span<const std::uint8_t>(bytes.begin(), bytes.size()))) {
      std::abort();  // a literal route longer than kCapacity
    }
  }

  // Replaces the route; false, leaving it unchanged, if `bytes` is longer
  // than kCapacity.
  [[nodiscard]] bool assign(std::span<const std::uint8_t> bytes) {
    if (bytes.size() > kCapacity) return false;
    len_ = static_cast<std::uint8_t>(bytes.size());
    if (len_ != 0) std::memcpy(bytes_, bytes.data(), len_);
    return true;
  }
  // Appends one port byte; false, leaving the route unchanged, if full.
  [[nodiscard]] bool push_back(std::uint8_t port) {
    if (len_ == kCapacity) return false;
    bytes_[len_++] = port;
    return true;
  }
  // Consumes the first byte (a switch reading its output port).
  std::uint8_t pop_front() {
    assert(len_ != 0);
    const std::uint8_t port = bytes_[0];
    --len_;
    std::memmove(bytes_, bytes_ + 1, len_);
    return port;
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t& front() {
    assert(len_ != 0);
    return bytes_[0];
  }
  std::uint8_t operator[](std::size_t i) const {
    assert(i < len_);
    return bytes_[i];
  }
  const std::uint8_t* data() const { return bytes_; }
  const std::uint8_t* begin() const { return bytes_; }
  const std::uint8_t* end() const { return bytes_ + len_; }
  operator std::span<const std::uint8_t>() const { return {bytes_, len_}; }

  friend bool operator==(const Route& a, const Route& b) {
    return a.len_ == b.len_ && std::memcmp(a.bytes_, b.bytes_, a.len_) == 0;
  }

 private:
  std::uint8_t bytes_[kCapacity] = {};
  std::uint8_t len_ = 0;
};

// Payload bytes are shared, copy-on-write (see util/buffer.h): copying a
// Packet into a switch queue or the retx-pool bumps a refcount instead of
// duplicating the bytes, so a payload is written once at the source NIC
// and never copied again unless a fault rule actually mutates it.
using Buffer = util::Buffer;

struct Packet {
  int src_nic = -1;   // injecting NIC id (diagnostics only; not on the wire)
  Route route;        // consumed hop by hop
  Buffer payload;
  std::uint8_t crc = 0;

  // Bytes occupying the wire: remaining route bytes + payload + CRC.
  std::size_t wire_bytes() const { return route.size() + payload.size() + 1; }

  // Link-hardware CRC, computed at injection over the payload.
  void StampCrc() { crc = Crc8(payload); }
  bool CrcOk() const { return Crc8(payload) == crc; }
};

}  // namespace vmmc::myrinet
