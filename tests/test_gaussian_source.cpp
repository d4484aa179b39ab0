// rf::gaussian_source and its engine: the block MT19937-64 against
// std::mt19937_64, the uniform conversion at its edges, the N(0,1) stream
// against libstdc++'s std::normal_distribution (whose algorithm the standard
// leaves open, hence the guard), and a pinned prefix that holds without it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/gaussian_source.hpp"
#include "mmtag/rf/noise.hpp"
#include "mmtag/rf/oscillator.hpp"

namespace mmtag::rf {
namespace {

constexpr std::array<std::uint64_t, 3> seeds{1, 5489, 0x9E3779B97F4A7C15ULL};

/// Fill lengths in the order they are asked for: empty, odd, either side of
/// the 512-draw chunk the RF chain asks for, and one link_long frame's worth.
constexpr std::array<std::size_t, 8> splits{0, 1, 3, 511, 512, 513, 103'392, 7};

TEST(mt19937_64_block, matches_std_mt19937_64_across_refills)
{
    for (const std::uint64_t seed : seeds) {
        mt19937_64_block engine(seed);
        std::mt19937_64 reference(seed);
        std::array<std::uint64_t, mt19937_64_block::block_size> block;
        std::size_t checked = 0;
        while (checked < 10'000) {
            engine.next_block(block);
            for (const std::uint64_t word : block) {
                ASSERT_EQ(word, reference()) << "seed " << seed << ", output " << checked;
                ++checked;
            }
        }
    }
}

TEST(unit_interval, matches_the_cast_and_clamps_below_one)
{
    EXPECT_EQ(unit_interval(0), 0.0);
    EXPECT_EQ(unit_interval((std::uint64_t{1} << 53) - 1), 0x1.fffffffffffffp-12);
    EXPECT_EQ(unit_interval(std::uint64_t{1} << 53), 0x1p-11);
    EXPECT_EQ(unit_interval((std::uint64_t{1} << 53) + 1), 0x1p-11); // ties to even
    EXPECT_EQ(unit_interval(std::uint64_t{1} << 63), 0.5);
    // 2^64 - 2^10 and up round to 2^64, i.e. 1.0, which is clamped.
    const double below_one = std::nextafter(1.0, 0.0);
    EXPECT_EQ(unit_interval(~std::uint64_t{0}), below_one);
    EXPECT_EQ(unit_interval(~std::uint64_t{0} - 1023), below_one);
    EXPECT_EQ(unit_interval(~std::uint64_t{0} - 1024), below_one);
    EXPECT_EQ(unit_interval(~std::uint64_t{0} - 2047), below_one);

    std::mt19937_64 words(3);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t u = words() >> (i % 64);
        EXPECT_EQ(unit_interval(u), std::min(static_cast<double>(u) * 0x1p-64, below_one)) << u;
    }
}

TEST(gaussian_source, first_draws_of_seed_1_are_pinned)
{
    // std::normal_distribution<double>{0, 1} on std::mt19937_64(1) under
    // libstdc++; written out so the stream stays pinned without the oracle.
    constexpr std::array<double, 16> expected{
        -0x1.8c1da014dda1p-2,  -0x1.42c3b2b72217p-5,  0x1.5fa75918ca314p-1,
        -0x1.fdd85e535a476p-3, -0x1.971d689089fddp-1, -0x1.bfaac1719697bp-5,
        0x1.f01d3e119ca68p+0,  0x1.003e6b2410a3cp+0,  0x1.e15bc7159ee3dp-4,
        -0x1.b7b63856f155ap-1, -0x1.4bec5ef0151f1p-1, 0x1.59615b28dae98p-1,
        -0x1.862918a96f613p+0, -0x1.fb44447f674b2p-2, 0x1.d3d936bb14019p-1,
        -0x1.411f30a818c17p-1,
    };
    gaussian_source source(1);
    std::array<double, 16> draws;
    source.fill(draws);
    for (std::size_t i = 0; i < draws.size(); ++i) EXPECT_EQ(draws[i], expected[i]) << i;
}

TEST(gaussian_source, fill_lengths_do_not_change_the_stream)
{
    gaussian_source whole(8);
    std::vector<double> expected(2'000);
    whole.fill(expected);

    gaussian_source pieces(8);
    std::vector<double> got;
    for (const std::size_t length : {1, 2, 311, 312, 313, 1, 1060}) {
        std::vector<double> piece(length);
        pieces.fill(piece);
        got.insert(got.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(got, expected);
}

TEST(gaussian_source, moments_are_standard_normal)
{
    gaussian_source source(21);
    std::vector<double> draws(200'000);
    source.fill(draws);
    double sum = 0.0;
    double squares = 0.0;
    for (const double x : draws) {
        sum += x;
        squares += x * x;
    }
    const auto n = static_cast<double>(draws.size());
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(squares / n, 1.0, 0.01);
}

#ifdef __GLIBCXX__

TEST(gaussian_source, matches_std_normal_distribution_for_any_split)
{
    for (const std::uint64_t seed : seeds) {
        gaussian_source source(seed);
        std::mt19937_64 engine(seed);
        std::normal_distribution<double> reference{0.0, 1.0};
        std::size_t checked = 0;
        for (const std::size_t length : splits) {
            std::vector<double> draws(length);
            source.fill(draws);
            for (const double x : draws) {
                ASSERT_EQ(x, reference(engine)) << "seed " << seed << ", draw " << checked;
                ++checked;
            }
        }
    }
}

// The RF blocks must give what their per-sample loops over
// std::normal_distribution gave, for any way a frame is cut into calls.

TEST(gaussian_source, awgn_add_to_matches_per_sample_draws)
{
    awgn_source source(0.5, 31);
    std::mt19937_64 engine(31);
    std::normal_distribution<double> gaussian{0.0, 1.0};
    const double sigma = std::sqrt(0.5 / 2.0);
    for (const std::size_t length : splits) {
        cvec buffer(length, cf64{0.25, -0.5});
        source.add_to(buffer);
        for (const cf64 x : buffer) {
            cf64 expected{0.25, -0.5};
            expected += cf64{sigma * gaussian(engine), sigma * gaussian(engine)};
            ASSERT_EQ(x, expected);
        }
    }
}

TEST(gaussian_source, lna_process_matches_per_sample_draws)
{
    const lna::config cfg{.gain_db = 20.0, .noise_figure_db = 3.0, .bandwidth_hz = 1e9};
    lna amplifier(cfg, 37);
    std::mt19937_64 engine(37);
    std::normal_distribution<double> gaussian{0.0, 1.0};
    const double gain = std::pow(10.0, cfg.gain_db / 20.0);
    const double sigma = std::sqrt(amplifier.input_referred_noise_power() / 2.0);
    for (const std::size_t length : splits) {
        const cvec input(length, cf64{1e-6, 2e-6});
        const cvec out = amplifier.process(input);
        for (const cf64 x : out) {
            const cf64 noise{sigma * gaussian(engine), sigma * gaussian(engine)};
            ASSERT_EQ(x, gain * (cf64{1e-6, 2e-6} + noise));
        }
    }
}

TEST(gaussian_source, oscillator_generate_matches_per_sample_draws)
{
    // One draw per sample, so odd lengths leave the pair's second draw for
    // the next call.
    const oscillator::config cfg{
        .sample_rate_hz = 2e9, .frequency_offset_hz = 1e3, .linewidth_hz = 1e3};
    oscillator lo(cfg, 41);
    std::mt19937_64 engine(41);
    std::normal_distribution<double> gaussian{0.0, 1.0};
    const double increment = two_pi * cfg.frequency_offset_hz / cfg.sample_rate_hz;
    const double sigma = std::sqrt(two_pi * cfg.linewidth_hz / cfg.sample_rate_hz);
    double phase = 0.0;
    for (const std::size_t length : splits) {
        for (const cf64 x : lo.generate(length)) {
            ASSERT_EQ(x, std::polar(1.0, phase));
            phase = wrap_phase(phase + (increment + sigma * gaussian(engine)));
        }
    }
    EXPECT_EQ(lo.phase(), phase);
}

#endif // __GLIBCXX__

} // namespace
} // namespace mmtag::rf
