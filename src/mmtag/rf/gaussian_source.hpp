// Block N(0,1) source for the RF chain: an in-repo MT19937-64 and a Marsaglia
// polar transform, both written to reproduce libstdc++'s
// std::normal_distribution<double>{0, 1} on std::mt19937_64 bit for bit, but
// producing a whole engine state (312 words) per step so the twist, the
// tempering and the uniform conversion vectorise. See DESIGN.md §12.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace mmtag::rf {

/// MT19937-64, seeded, twisted and tempered exactly as std::mt19937_64, one
/// state-sized block of outputs at a time.
class mt19937_64_block {
public:
    static constexpr std::size_t block_size = 312;

    explicit mt19937_64_block(std::uint64_t seed);

    /// Writes the next block_size outputs, in std::mt19937_64's order.
    void next_block(std::span<std::uint64_t, block_size> out);

private:
    std::array<std::uint64_t, block_size> state_{};
};

/// u * 2^-64 as a double, clamped below 1 as std::generate_canonical<double,
/// 53> clamps it. The u64 -> double conversion is done on the two 32-bit
/// halves (each exact, read off as 2^52 + half) and one rounding of their
/// exact sum, which equals static_cast<double>(u); with the clamp done on the
/// bits too, the function has no branch, so loops over it vectorise.
[[nodiscard]] inline double unit_interval(std::uint64_t u)
{
    constexpr std::uint64_t two_52_bits = 0x4330000000000000ULL; // 2^52
    const double hi = std::bit_cast<double>(two_52_bits | (u >> 32)) - 0x1p52;
    const double lo = std::bit_cast<double>(two_52_bits | (u & 0xffffffffULL)) - 0x1p52;
    const double canonical = (hi * 0x1p32 + lo) * 0x1p-64; // in [0, 1]
    // canonical is 1 only when u rounds up to 2^64, and generate_canonical
    // then returns nextafter(1, 0), whose bits are 1.0's minus one. Adding
    // 2^52 to the bits carries into bit 62 for 1.0 and for no double below.
    const auto bits = std::bit_cast<std::uint64_t>(canonical);
    return std::bit_cast<double>(bits - ((bits + (std::uint64_t{1} << 52)) >> 62));
}

/// Standard normal draws, the same stream as std::normal_distribution<double>
/// {0, 1} drawing from std::mt19937_64(seed). Draws are made one engine block
/// (156 candidate pairs) at a time and kept in a fixed 312-draw buffer, so a
/// fill of any length, odd ones included, continues the stream exactly.
class gaussian_source {
public:
    /// Draws the RF chain's block methods ask for per fill: their scratch is
    /// this many doubles on the stack, whatever the frame length.
    static constexpr std::size_t chunk_draws = 512;

    explicit gaussian_source(std::uint64_t seed);

    /// Writes the next out.size() draws.
    void fill(std::span<double> out);

private:
    static constexpr std::size_t pairs_per_block = mt19937_64_block::block_size / 2;

    void refill();

    mt19937_64_block engine_;
    std::array<double, 2 * pairs_per_block> draws_{};
    std::size_t next_ = 0;  ///< first unread draw in draws_
    std::size_t ready_ = 0; ///< draws in draws_
};

} // namespace mmtag::rf
