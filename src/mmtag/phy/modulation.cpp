#include "mmtag/phy/modulation.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mmtag::phy {

namespace {

constexpr std::uint32_t gray_encode(std::uint32_t value)
{
    return value ^ (value >> 1);
}

std::size_t order(modulation scheme)
{
    return constellation_size(scheme);
}

} // namespace

std::size_t bits_per_symbol(modulation scheme)
{
    switch (scheme) {
    case modulation::bpsk: return 1;
    case modulation::qpsk: return 2;
    case modulation::psk8: return 3;
    case modulation::psk16: return 4;
    }
    throw std::invalid_argument("bits_per_symbol: unknown modulation");
}

std::size_t constellation_size(modulation scheme)
{
    return std::size_t{1} << bits_per_symbol(scheme);
}

std::string modulation_name(modulation scheme)
{
    switch (scheme) {
    case modulation::bpsk: return "BPSK";
    case modulation::qpsk: return "QPSK";
    case modulation::psk8: return "8-PSK";
    case modulation::psk16: return "16-PSK";
    }
    throw std::invalid_argument("modulation_name: unknown modulation");
}

modulation parse_modulation(const std::string& name)
{
    if (name == "bpsk") return modulation::bpsk;
    if (name == "qpsk") return modulation::qpsk;
    if (name == "8psk") return modulation::psk8;
    if (name == "16psk") return modulation::psk16;
    throw std::invalid_argument("unknown modulation '" + name +
                                "' (bpsk, qpsk, 8psk, 16psk)");
}

cvec constellation(modulation scheme)
{
    // All schemes use phases 2 pi p / M with p = 0 on the positive real axis.
    // Keeping BPSK's {+1, -1} a subset of every even-M constellation lets the
    // tag realize preamble, header, and payload from one stub bank.
    const std::size_t m = order(scheme);
    cvec points(m);
    for (std::size_t position = 0; position < m; ++position) {
        const std::uint32_t bits = gray_encode(static_cast<std::uint32_t>(position));
        points[bits] = std::polar(1.0, two_pi * static_cast<double>(position) /
                                           static_cast<double>(m));
    }
    return points;
}

cvec map_bits(std::span<const std::uint8_t> bits, modulation scheme)
{
    const std::size_t k = bits_per_symbol(scheme);
    const cvec points = constellation(scheme);
    const std::size_t symbol_count = (bits.size() + k - 1) / k;
    cvec symbols;
    symbols.reserve(symbol_count);
    for (std::size_t s = 0; s < symbol_count; ++s) {
        std::uint32_t value = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t index = s * k + j;
            const std::uint32_t bit = index < bits.size() ? (bits[index] & 1u) : 0u;
            value = (value << 1) | bit;
        }
        symbols.push_back(points[value]);
    }
    return symbols;
}

std::vector<std::uint8_t> demap_hard(std::span<const cf64> symbols, modulation scheme)
{
    const std::size_t k = bits_per_symbol(scheme);
    const cvec points = constellation(scheme);
    std::vector<std::uint8_t> bits;
    bits.reserve(symbols.size() * k);
    for (cf64 y : symbols) {
        std::size_t best = 0;
        double best_distance = std::numeric_limits<double>::max();
        for (std::size_t c = 0; c < points.size(); ++c) {
            const double d = std::norm(y - points[c]);
            if (d < best_distance) {
                best_distance = d;
                best = c;
            }
        }
        for (std::size_t j = k; j-- > 0;) {
            bits.push_back(static_cast<std::uint8_t>((best >> j) & 1u));
        }
    }
    return bits;
}

std::vector<double> demap_soft(std::span<const cf64> symbols, modulation scheme,
                               double noise_variance)
{
    if (noise_variance <= 0.0) throw std::invalid_argument("demap_soft: noise variance <= 0");
    const std::size_t k = bits_per_symbol(scheme);
    const cvec points = constellation(scheme);
    std::vector<double> llrs;
    llrs.reserve(symbols.size() * k);
    for (cf64 y : symbols) {
        for (std::size_t j = k; j-- > 0;) {
            double best_zero = std::numeric_limits<double>::max();
            double best_one = std::numeric_limits<double>::max();
            for (std::size_t c = 0; c < points.size(); ++c) {
                const double d = std::norm(y - points[c]);
                if ((c >> j) & 1u) best_one = std::min(best_one, d);
                else best_zero = std::min(best_zero, d);
            }
            // Max-log LLR; positive means bit 0 more likely.
            llrs.push_back((best_one - best_zero) / noise_variance);
        }
    }
    return llrs;
}

double q_function(double x)
{
    return 0.5 * std::erfc(x / std::sqrt(2.0));
}

double theoretical_ber(modulation scheme, double ebn0_db)
{
    const double ebn0 = from_db(ebn0_db);
    const std::size_t k = bits_per_symbol(scheme);
    switch (scheme) {
    case modulation::bpsk:
    case modulation::qpsk:
        // Gray-coded QPSK has the same per-bit error rate as BPSK.
        return q_function(std::sqrt(2.0 * ebn0));
    case modulation::psk8:
    case modulation::psk16: {
        const double m = static_cast<double>(constellation_size(scheme));
        const double es_n0 = static_cast<double>(k) * ebn0;
        // Union bound on symbol errors, /k for Gray-coded bit errors.
        const double ser = 2.0 * q_function(std::sqrt(2.0 * es_n0) * std::sin(pi / m));
        return ser / static_cast<double>(k);
    }
    }
    throw std::invalid_argument("theoretical_ber: unknown modulation");
}

} // namespace mmtag::phy
