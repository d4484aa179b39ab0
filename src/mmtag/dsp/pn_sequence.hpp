// Pseudo-noise sequences: maximal-length LFSR (m-sequences), Barker codes,
// and correlation utilities used for preamble synchronization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// Fibonacci LFSR over GF(2) defined by a tap polynomial.
///
/// `polynomial` uses the convention that bit k set means x^(k+1) feeds back;
/// e.g. x^7 + x^6 + 1 is 0b1100000 (0x60) with degree 7.
class lfsr {
public:
    lfsr(std::uint32_t polynomial, std::uint32_t degree, std::uint32_t seed = 1);

    /// Produces the next output bit (0/1) and advances the register.
    [[nodiscard]] int step();

    /// Generates `count` bits.
    [[nodiscard]] std::vector<std::uint8_t> generate(std::size_t count);

    [[nodiscard]] std::uint32_t state() const { return state_; }
    [[nodiscard]] std::size_t period() const { return (std::size_t{1} << degree_) - 1; }

private:
    std::uint32_t polynomial_;
    std::uint32_t degree_;
    std::uint32_t state_;
};

/// Full-period m-sequence for a standard primitive polynomial of the given
/// degree (supported degrees: 3..16).
[[nodiscard]] std::vector<std::uint8_t> m_sequence(std::uint32_t degree, std::uint32_t seed = 1);

/// Maps bits {0,1} to BPSK chips {+1,-1} as complex samples.
[[nodiscard]] cvec bits_to_bpsk(std::span<const std::uint8_t> bits);

/// Sliding (non-normalized) cross-correlation magnitude of `haystack` against
/// `needle`; output index i corresponds to needle aligned at haystack[i].
[[nodiscard]] rvec correlate_magnitude(std::span<const cf64> haystack,
                                       std::span<const cf64> needle);

/// Index of the correlation peak, with the peak-to-sidelobe ratio returned in
/// `peak_to_sidelobe` when non-null.
[[nodiscard]] std::size_t correlation_peak(std::span<const double> correlation,
                                           double* peak_to_sidelobe = nullptr);

} // namespace mmtag::dsp
