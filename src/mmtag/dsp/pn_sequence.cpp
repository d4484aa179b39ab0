#include "mmtag/dsp/pn_sequence.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace mmtag::dsp {

lfsr::lfsr(std::uint32_t polynomial, std::uint32_t degree, std::uint32_t seed)
    : polynomial_(polynomial), degree_(degree), state_(seed)
{
    if (degree == 0 || degree > 31) throw std::invalid_argument("lfsr: degree must be in [1, 31]");
    const std::uint32_t mask = (std::uint32_t{1} << degree) - 1;
    state_ &= mask;
    if (state_ == 0) throw std::invalid_argument("lfsr: seed must be nonzero modulo 2^degree");
    if ((polynomial & ~mask) != 0) {
        throw std::invalid_argument("lfsr: polynomial has taps above the register degree");
    }
}

int lfsr::step()
{
    const int output = static_cast<int>(state_ & 1u);
    const std::uint32_t feedback =
        static_cast<std::uint32_t>(std::popcount(state_ & polynomial_) & 1);
    state_ >>= 1;
    state_ |= feedback << (degree_ - 1);
    return output;
}

std::vector<std::uint8_t> lfsr::generate(std::size_t count)
{
    std::vector<std::uint8_t> bits(count);
    for (auto& bit : bits) bit = static_cast<std::uint8_t>(step());
    return bits;
}

std::vector<std::uint8_t> m_sequence(std::uint32_t degree, std::uint32_t seed)
{
    // Primitive polynomials p(x) = x^n + sum x^e + 1 as Fibonacci feedback
    // masks: bit e set for every term below x^n (bit 0 is the constant term).
    // With state bit k holding y[t+k], the feedback y[t+n] = XOR of the
    // masked bits realizes the recurrence exactly.
    static const std::uint32_t primitive_taps[] = {
        0,      // degree 0 (unused)
        0,      // 1 (unused)
        0,      // 2 (unused)
        0x5,    // 3: x^3 + x^2 + 1
        0x9,    // 4: x^4 + x^3 + 1
        0x9,    // 5: x^5 + x^3 + 1
        0x21,   // 6: x^6 + x^5 + 1
        0x41,   // 7: x^7 + x^6 + 1
        0x71,   // 8: x^8 + x^6 + x^5 + x^4 + 1
        0x21,   // 9: x^9 + x^5 + 1
        0x81,   // 10: x^10 + x^7 + 1
        0x201,  // 11: x^11 + x^9 + 1
        0xC11,  // 12: x^12 + x^11 + x^10 + x^4 + 1
        0x1901, // 13: x^13 + x^12 + x^11 + x^8 + 1
        0x3005, // 14: x^14 + x^13 + x^12 + x^2 + 1
        0x4001, // 15: x^15 + x^14 + 1
        0xA011, // 16: x^16 + x^15 + x^13 + x^4 + 1
    };
    if (degree < 3 || degree > 16) {
        throw std::invalid_argument("m_sequence: supported degrees are 3..16");
    }
    lfsr generator(primitive_taps[degree], degree, seed);
    return generator.generate(generator.period());
}

cvec bits_to_bpsk(std::span<const std::uint8_t> bits)
{
    cvec chips;
    chips.reserve(bits.size());
    for (auto bit : bits) chips.emplace_back(bit ? -1.0 : 1.0, 0.0);
    return chips;
}

rvec correlate_magnitude(std::span<const cf64> haystack, std::span<const cf64> needle)
{
    if (needle.empty() || haystack.size() < needle.size()) return {};
    rvec out(haystack.size() - needle.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        cf64 acc{};
        for (std::size_t k = 0; k < needle.size(); ++k) {
            acc += haystack[i + k] * std::conj(needle[k]);
        }
        out[i] = std::abs(acc);
    }
    return out;
}

std::size_t correlation_peak(std::span<const double> correlation, double* peak_to_sidelobe)
{
    if (correlation.empty()) throw std::invalid_argument("correlation_peak: empty input");
    const auto peak_it = std::max_element(correlation.begin(), correlation.end());
    const auto peak_index = static_cast<std::size_t>(peak_it - correlation.begin());
    if (peak_to_sidelobe != nullptr) {
        double sidelobe = 0.0;
        for (std::size_t i = 0; i < correlation.size(); ++i) {
            // Exclude the immediate neighborhood of the main peak.
            if (i + 2 >= peak_index && i <= peak_index + 2) continue;
            sidelobe = std::max(sidelobe, correlation[i]);
        }
        *peak_to_sidelobe = sidelobe > 0.0 ? *peak_it / sidelobe
                                           : std::numeric_limits<double>::infinity();
    }
    return peak_index;
}

} // namespace mmtag::dsp
