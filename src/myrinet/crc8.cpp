#include "vmmc/myrinet/crc8.h"

#include <array>
#include <cstddef>

namespace vmmc::myrinet {

namespace {
constexpr std::uint8_t kPoly = 0x07;

constexpr std::array<std::uint8_t, 256> MakeTable() {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t crc = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint8_t>((crc & 0x80) ? (crc << 1) ^ kPoly : crc << 1);
    }
    table[static_cast<std::size_t>(i)] = crc;
  }
  return table;
}

// Slicing-by-8 tables: kSlice[k][x] is the CRC of byte x followed by k
// zero bytes, i.e. kSlice[0] is the byte-at-a-time table and each further
// slice pushes one more zero byte through it.
constexpr std::array<std::array<std::uint8_t, 256>, 8> MakeSlices() {
  std::array<std::array<std::uint8_t, 256>, 8> slices{};
  slices[0] = MakeTable();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t x = 0; x < 256; ++x) {
      slices[k][x] = slices[0][slices[k - 1][x]];
    }
  }
  return slices;
}

constexpr auto kSlice = MakeSlices();
}  // namespace

std::uint8_t Crc8Update(std::uint8_t crc, std::span<const std::uint8_t> data) {
  // CRC is linear over GF(2): the register after eight bytes is the XOR of
  // each byte's contribution shifted through the remaining zero bytes, so
  // the eight lookups are independent instead of chained.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    crc = static_cast<std::uint8_t>(
        kSlice[7][crc ^ p[0]] ^ kSlice[6][p[1]] ^ kSlice[5][p[2]] ^
        kSlice[4][p[3]] ^ kSlice[3][p[4]] ^ kSlice[2][p[5]] ^
        kSlice[1][p[6]] ^ kSlice[0][p[7]]);
  }
  for (; n > 0; --n, ++p) crc = kSlice[0][crc ^ *p];
  return crc;
}

std::uint8_t Crc8(std::span<const std::uint8_t> data) {
  return Crc8Update(0, data);
}

}  // namespace vmmc::myrinet
