// Convolutional coding: K=7 rate-1/2 encoder (the 802.11/CCSDS generator
// pair 133/171 octal) with optional puncturing to rates 2/3 and 3/4, and a
// Viterbi decoder supporting hard and soft decisions.
//
// The asymmetry of this code fits backscatter perfectly: encoding is a couple
// of XORs per bit (cheap enough for a tag MCU), while the Viterbi trellis
// search runs at the mains-powered AP.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mmtag::fec {

enum class code_rate {
    half,          // R = 1/2, no puncturing
    two_thirds,    // R = 2/3
    three_quarters // R = 3/4
};

/// Encodes `bits` (0/1 values) with the K=7 (133,171) code, appending K-1
/// zero tail bits to terminate the trellis, then punctures to `rate`.
[[nodiscard]] std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits,
                                                             code_rate rate = code_rate::half);

/// Viterbi decoder over hard bits (0/1). Input must be the output of
/// convolutional_encode with the same rate. Returns the information bits
/// (tail removed).
[[nodiscard]] std::vector<std::uint8_t> viterbi_decode(std::span<const std::uint8_t> coded_bits,
                                                       code_rate rate = code_rate::half);

/// Soft-decision Viterbi: inputs are LLR-like values where sign encodes the
/// bit (negative => 1) and magnitude the confidence.
[[nodiscard]] std::vector<std::uint8_t> viterbi_decode_soft(std::span<const double> soft_bits,
                                                            code_rate rate = code_rate::half);

/// Number of coded bits produced for `info_bits` information bits at `rate`
/// (including the trellis termination tail).
[[nodiscard]] std::size_t coded_length(std::size_t info_bits, code_rate rate);

} // namespace mmtag::fec
