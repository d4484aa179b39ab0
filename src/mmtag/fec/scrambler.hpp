// Additive (synchronous) LFSR scrambler for data whitening. Backscatter load
// modulation needs balanced bit streams: long runs of one symbol look like an
// unmodulated reflection and collapse into the AP's DC/clutter notch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mmtag::fec {

/// Synchronous scrambler with the x^7 + x^4 + 1 polynomial (802.11-style).
/// Scrambling and descrambling are the same XOR operation with a shared seed.
class scrambler {
public:
    explicit scrambler(std::uint8_t seed = 0x5D);

    /// XORs the whitening sequence onto a bit vector (values 0/1).
    [[nodiscard]] std::vector<std::uint8_t> process(std::span<const std::uint8_t> bits);

private:
    std::uint8_t state_;
};

/// Byte-oriented convenience: whitens each byte MSB-first.
[[nodiscard]] std::vector<std::uint8_t> scramble_bytes(std::span<const std::uint8_t> bytes,
                                                       std::uint8_t seed = 0x5D);

} // namespace mmtag::fec
