// Table-driven cyclic redundancy checks used by the mmtag frame format:
// CRC-8 (header) and CRC-32 (payload).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace mmtag::fec {

/// CRC-8/ATM (polynomial 0x07, init 0x00, no reflection).
[[nodiscard]] std::uint8_t crc8(std::span<const std::uint8_t> data);

/// CRC-32/ISO-HDLC (polynomial 0x04C11DB7 reflected, init/xorout 0xFFFFFFFF)
/// — the Ethernet/zlib CRC.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Appends a big-endian CRC-32 to `data`.
[[nodiscard]] std::vector<std::uint8_t> append_crc32(std::span<const std::uint8_t> data);

/// Verifies and strips a trailing big-endian CRC-32. Returns false if the
/// frame is shorter than the CRC or the check fails; `payload` is untouched
/// on failure.
[[nodiscard]] bool check_and_strip_crc32(std::span<const std::uint8_t> frame,
                                         std::vector<std::uint8_t>& payload);

} // namespace mmtag::fec
