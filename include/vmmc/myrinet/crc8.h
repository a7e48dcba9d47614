// CRC-8 as computed by the Myrinet link hardware (§3): "On sending, the
// 8-bit CRC is computed by hardware and is appended to the packet. On a
// packet arrival, CRC hardware computes the CRC of the incoming packet and
// compares it with the received CRC."
//
// Polynomial: x^8 + x^2 + x + 1 (0x07), the CRC-8/ATM-HEC generator.
#pragma once

#include <cstdint>
#include <span>

namespace vmmc::myrinet {

// CRC-8 over `data`, initial value 0. Computed slicing-by-8: eight
// independent 256-entry table lookups per 8 input bytes instead of one
// chained lookup per byte; CRC is linear over GF(2), so the result equals
// the bit-serial hardware CRC for every input.
std::uint8_t Crc8(std::span<const std::uint8_t> data);

// Incremental form for streaming use: Crc8Update(Crc8(a), b) == Crc8(a ++ b).
std::uint8_t Crc8Update(std::uint8_t crc, std::span<const std::uint8_t> data);

}  // namespace vmmc::myrinet
