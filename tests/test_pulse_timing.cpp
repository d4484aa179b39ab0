#include <gtest/gtest.h>

#include <random>

#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"

namespace mmtag::dsp {
namespace {

/// Rectangular pulse shaping: each symbol held for `sps` samples, the
/// waveform a switching tag produces.
cvec hold_symbols(const cvec& symbols, std::size_t sps)
{
    cvec out;
    for (const cf64 s : symbols) out.insert(out.end(), sps, s);
    return out;
}

TEST(pulse_shape, integrate_and_dump_recovers_symbols)
{
    const cvec symbols{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
    const cvec shaped = hold_symbols(symbols, 10);
    const cvec recovered = integrate_and_dump(std::span<const cf64>{shaped.data(), 40}, 10);
    ASSERT_EQ(recovered.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(std::abs(recovered[i] - symbols[i]), 0.0, 1e-12);
    }
}

TEST(pulse_shape, integrate_and_dump_offset)
{
    cvec samples(25, cf64{1.0, 0.0});
    const cvec out = integrate_and_dump(samples, 10, 3);
    EXPECT_EQ(out.size(), 2u); // samples 3..12 and 13..22
}

TEST(timing, best_symbol_offset_finds_shift)
{
    constexpr std::size_t sps = 10;
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<int> bit(0, 1);
    cvec symbols(64);
    for (auto& s : symbols) s = {bit(rng) ? 1.0 : -1.0, 0.0};
    const cvec shaped = hold_symbols(symbols, sps);

    for (std::size_t shift : {0u, 3u, 7u}) {
        cvec delayed(shift, cf64{});
        delayed.insert(delayed.end(), shaped.begin(), shaped.end());
        const std::size_t found = best_symbol_offset(delayed, sps);
        EXPECT_EQ(found, shift % sps);
    }
}

} // namespace
} // namespace mmtag::dsp
