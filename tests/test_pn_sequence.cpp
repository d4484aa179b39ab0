#include <gtest/gtest.h>

#include <numeric>

#include "mmtag/dsp/pn_sequence.hpp"

namespace mmtag::dsp {
namespace {

class m_sequence_properties : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(m_sequence_properties, full_period_and_balance)
{
    const std::uint32_t degree = GetParam();
    const auto bits = m_sequence(degree);
    const std::size_t period = (std::size_t{1} << degree) - 1;
    ASSERT_EQ(bits.size(), period);
    // m-sequences have exactly 2^(n-1) ones and 2^(n-1)-1 zeros.
    const std::size_t ones = std::accumulate(bits.begin(), bits.end(), std::size_t{0});
    EXPECT_EQ(ones, (period + 1) / 2);
}

TEST_P(m_sequence_properties, two_valued_autocorrelation)
{
    const std::uint32_t degree = GetParam();
    const auto bits = m_sequence(degree);
    const std::size_t n = bits.size();
    // +-1 mapping; periodic autocorrelation must be n at lag 0, -1 elsewhere.
    std::vector<int> chips(n);
    for (std::size_t i = 0; i < n; ++i) chips[i] = bits[i] ? -1 : 1;
    for (std::size_t lag : {std::size_t{0}, std::size_t{1}, n / 3, n - 1}) {
        long long acc = 0;
        for (std::size_t i = 0; i < n; ++i) acc += chips[i] * chips[(i + lag) % n];
        if (lag == 0) EXPECT_EQ(acc, static_cast<long long>(n));
        else EXPECT_EQ(acc, -1);
    }
}

INSTANTIATE_TEST_SUITE_P(degrees, m_sequence_properties,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

TEST(lfsr, validation)
{
    EXPECT_THROW(lfsr(0x6, 3, 0), std::invalid_argument);       // zero seed
    EXPECT_THROW(lfsr(0x6, 0, 1), std::invalid_argument);       // zero degree
    EXPECT_THROW(lfsr(0xFF, 3, 1), std::invalid_argument);      // taps above degree
    EXPECT_THROW((void)m_sequence(2), std::invalid_argument);
    EXPECT_THROW((void)m_sequence(17), std::invalid_argument);
}

TEST(lfsr, deterministic_for_seed)
{
    lfsr a(0x60, 7, 5);
    lfsr b(0x60, 7, 5);
    EXPECT_EQ(a.generate(50), b.generate(50));
}

TEST(correlation, finds_embedded_sequence)
{
    const auto bits = m_sequence(6);
    const cvec needle = bits_to_bpsk(bits);
    cvec haystack(40, cf64{0.1, -0.05});
    haystack.insert(haystack.end(), needle.begin(), needle.end());
    haystack.resize(haystack.size() + 25, cf64{-0.08, 0.02});

    const rvec correlation = correlate_magnitude(haystack, needle);
    double quality = 0.0;
    const std::size_t peak = correlation_peak(correlation, &quality);
    EXPECT_EQ(peak, 40u);
    EXPECT_GT(quality, 3.0);
}

TEST(correlation, empty_inputs)
{
    EXPECT_TRUE(correlate_magnitude(cvec{}, cvec{}).empty());
    EXPECT_THROW((void)correlation_peak(rvec{}), std::invalid_argument);
}

TEST(bits_to_bpsk, mapping_convention)
{
    const std::vector<std::uint8_t> bits{0, 1};
    const cvec chips = bits_to_bpsk(bits);
    EXPECT_EQ(chips[0], (cf64{1.0, 0.0}));
    EXPECT_EQ(chips[1], (cf64{-1.0, 0.0}));
}

} // namespace
} // namespace mmtag::dsp
