#include <gtest/gtest.h>

#include <random>

#include "mmtag/dsp/fft.hpp"

namespace mmtag::dsp {
namespace {

cvec random_signal(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> g(0.0, 1.0);
    cvec x(n);
    for (auto& v : x) v = {g(rng), g(rng)};
    return x;
}

TEST(fft, power_of_two_helpers)
{
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(1024));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(12));
    EXPECT_EQ(next_power_of_two(1), 1u);
    EXPECT_EQ(next_power_of_two(17), 32u);
    EXPECT_EQ(next_power_of_two(64), 64u);
}

TEST(fft, rejects_non_power_of_two)
{
    EXPECT_THROW(fft_plan(12), std::invalid_argument);
}

TEST(fft, impulse_transforms_to_flat_spectrum)
{
    cvec x(16, cf64{});
    x[0] = {1.0, 0.0};
    const cvec spectrum = fft(x);
    for (const auto& bin : spectrum) {
        EXPECT_NEAR(bin.real(), 1.0, 1e-12);
        EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
    }
}

TEST(fft, single_tone_lands_in_one_bin)
{
    constexpr std::size_t n = 64;
    constexpr std::size_t bin = 5;
    cvec x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::polar(1.0, two_pi * static_cast<double>(bin * i) / n);
    }
    const cvec spectrum = fft(x);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == bin) EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-9);
        else EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
    }
}

class fft_roundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(fft_roundtrip, inverse_recovers_input)
{
    const std::size_t n = GetParam();
    const cvec x = random_signal(n, 42 + n);
    const cvec back = ifft(fft(x));
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9) << "index " << i;
    }
}

TEST_P(fft_roundtrip, parseval_energy_preserved)
{
    const std::size_t n = GetParam();
    const cvec x = random_signal(n, 7 + n);
    const cvec spectrum = fft(x);
    double time_energy = 0.0;
    for (const auto& v : x) time_energy += std::norm(v);
    double freq_energy = 0.0;
    for (const auto& v : spectrum) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6 * time_energy + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(sizes, fft_roundtrip,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024, 4096));

TEST(fft, power_spectrum_total_equals_signal_power)
{
    const cvec x = random_signal(128, 3);
    const rvec spectrum = power_spectrum(x);
    double total = 0.0;
    for (double p : spectrum) total += p;
    double signal = 0.0;
    for (const auto& v : x) signal += std::norm(v);
    EXPECT_NEAR(total, signal, 1e-6 * signal);
}

} // namespace
} // namespace mmtag::dsp
