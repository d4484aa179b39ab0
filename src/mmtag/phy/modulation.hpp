// M-PSK symbol mapping. PSK is the natural constellation for backscatter
// load modulation: each termination stub rotates the reflected carrier by a
// fixed phase at (ideally) constant magnitude, so the tag's "DAC" is a
// switch choosing among M phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag::phy {

enum class modulation {
    bpsk,  // 1 bit/symbol
    qpsk,  // 2
    psk8,  // 3
    psk16, // 4
};

[[nodiscard]] std::size_t bits_per_symbol(modulation scheme);
[[nodiscard]] std::size_t constellation_size(modulation scheme);
[[nodiscard]] std::string modulation_name(modulation scheme);
/// Parses a CLI modulation token ("bpsk", "qpsk", "8psk", "16psk"); throws
/// std::invalid_argument on anything else.
[[nodiscard]] modulation parse_modulation(const std::string& name);

/// Unit-energy constellation points in Gray-code order: point index i is the
/// symbol whose Gray-decoded bits equal i.
[[nodiscard]] cvec constellation(modulation scheme);

/// Maps a bit vector (0/1, length padded to a symbol boundary with zeros)
/// onto constellation symbols.
[[nodiscard]] cvec map_bits(std::span<const std::uint8_t> bits, modulation scheme);

/// Hard demapping: nearest constellation point, Gray decoded back to bits.
[[nodiscard]] std::vector<std::uint8_t> demap_hard(std::span<const cf64> symbols,
                                                   modulation scheme);

/// Soft demapping: per-bit LLR-like values (positive = bit 0), max-log
/// approximation with noise variance `noise_variance` (>0).
[[nodiscard]] std::vector<double> demap_soft(std::span<const cf64> symbols, modulation scheme,
                                             double noise_variance);

/// Theoretical AWGN bit error rate at `ebn0_db` for the scheme (exact for
/// BPSK/QPSK, tight union bound for 8/16-PSK with Gray coding).
[[nodiscard]] double theoretical_ber(modulation scheme, double ebn0_db);

/// Gaussian tail function Q(x).
[[nodiscard]] double q_function(double x);

} // namespace mmtag::phy
