#include <gtest/gtest.h>

#include <random>

#include "mmtag/fec/convolutional.hpp"
#include "mmtag/fec/hamming.hpp"
#include "mmtag/fec/interleaver.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::fec {
namespace {

using mmtag::phy::random_bits;

TEST(hamming, round_trip)
{
    const auto bits = random_bits(64, 1);
    const auto coded = hamming74_encode(bits);
    EXPECT_EQ(coded.size(), 64u / 4 * 7);
    const auto decoded = hamming74_decode(coded);
    EXPECT_EQ(decoded, bits);
}

class hamming_single_error : public ::testing::TestWithParam<std::size_t> {};

TEST_P(hamming_single_error, corrected)
{
    const std::size_t error_position = GetParam();
    const auto bits = random_bits(4, 7);
    auto coded = hamming74_encode(bits);
    coded[error_position] ^= 1;
    std::size_t corrections = 0;
    const auto decoded = hamming74_decode(coded, &corrections);
    EXPECT_EQ(decoded, bits) << "error at " << error_position;
    EXPECT_EQ(corrections, 1u);
}

INSTANTIATE_TEST_SUITE_P(positions, hamming_single_error,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u));

TEST(hamming, pads_partial_block)
{
    const std::vector<std::uint8_t> bits{1, 0, 1}; // not a multiple of 4
    const auto coded = hamming74_encode(bits);
    EXPECT_EQ(coded.size(), 7u);
    const auto decoded = hamming74_decode(coded);
    EXPECT_EQ(decoded[0], 1);
    EXPECT_EQ(decoded[1], 0);
    EXPECT_EQ(decoded[2], 1);
    EXPECT_EQ(decoded[3], 0); // padding
}

TEST(hamming, rejects_bad_length)
{
    EXPECT_THROW((void)hamming74_decode(std::vector<std::uint8_t>(8, 0)), std::invalid_argument);
}

class conv_round_trip : public ::testing::TestWithParam<code_rate> {};

TEST_P(conv_round_trip, clean_channel)
{
    const auto bits = random_bits(200, 11);
    const auto coded = convolutional_encode(bits, GetParam());
    EXPECT_EQ(coded.size(), coded_length(bits.size(), GetParam()));
    const auto decoded = viterbi_decode(coded, GetParam());
    EXPECT_EQ(decoded, bits);
}

TEST_P(conv_round_trip, soft_decisions_clean)
{
    const auto bits = random_bits(120, 13);
    const auto coded = convolutional_encode(bits, GetParam());
    std::vector<double> soft;
    for (auto b : coded) soft.push_back(b ? -2.5 : 2.5);
    EXPECT_EQ(viterbi_decode_soft(soft, GetParam()), bits);
}

INSTANTIATE_TEST_SUITE_P(rates, conv_round_trip,
                         ::testing::Values(code_rate::half, code_rate::two_thirds,
                                           code_rate::three_quarters));

TEST(conv, rate_fractions)
{
    EXPECT_DOUBLE_EQ(rate_fraction(code_rate::half), 0.5);
    EXPECT_NEAR(rate_fraction(code_rate::two_thirds), 2.0 / 3.0, 1e-15);
    EXPECT_DOUBLE_EQ(rate_fraction(code_rate::three_quarters), 0.75);
}

TEST(conv, coded_length_reflects_puncturing)
{
    const std::size_t info = 100;
    const std::size_t full = coded_length(info, code_rate::half);
    EXPECT_EQ(full, 2 * (info + 6));
    // 2/3 keeps 3 of every 4 bits; 3/4 keeps 4 of every 6.
    EXPECT_NEAR(static_cast<double>(coded_length(info, code_rate::two_thirds)),
                full * 0.75, 2.0);
    EXPECT_NEAR(static_cast<double>(coded_length(info, code_rate::three_quarters)),
                full * 2.0 / 3.0, 2.0);
}

TEST(conv, corrects_scattered_hard_errors)
{
    const auto bits = random_bits(300, 17);
    auto coded = convolutional_encode(bits, code_rate::half);
    // Flip ~3% of coded bits, spread out.
    std::mt19937_64 rng(23);
    std::uniform_int_distribution<std::size_t> pos(0, coded.size() - 1);
    for (std::size_t e = 0; e < coded.size() / 33; ++e) coded[pos(rng)] ^= 1;
    EXPECT_EQ(viterbi_decode(coded, code_rate::half), bits);
}

TEST(conv, soft_outperforms_hard_at_same_noise)
{
    // At moderate noise, soft decoding should produce no more errors than
    // hard decoding over the same noisy observations.
    std::mt19937_64 rng(29);
    std::normal_distribution<double> noise(0.0, 0.6);
    std::size_t soft_errors = 0;
    std::size_t hard_errors = 0;
    for (int trial = 0; trial < 20; ++trial) {
        const auto bits = random_bits(150, 100 + trial);
        const auto coded = convolutional_encode(bits, code_rate::half);
        std::vector<double> soft;
        std::vector<std::uint8_t> hard;
        for (auto b : coded) {
            const double value = (b ? -1.0 : 1.0) + noise(rng);
            soft.push_back(value);
            hard.push_back(value < 0.0 ? 1 : 0);
        }
        const auto soft_out = viterbi_decode_soft(soft, code_rate::half);
        const auto hard_out = viterbi_decode(hard, code_rate::half);
        soft_errors += mmtag::phy::hamming_distance(soft_out, bits);
        hard_errors += mmtag::phy::hamming_distance(hard_out, bits);
    }
    EXPECT_LE(soft_errors, hard_errors);
}

TEST(conv, empty_input_encodes_tail_only)
{
    const auto coded = convolutional_encode({}, code_rate::half);
    EXPECT_EQ(coded.size(), 12u); // 6 tail bits * 2
    const auto decoded = viterbi_decode(coded, code_rate::half);
    EXPECT_TRUE(decoded.empty());
}

TEST(interleaver, round_trip)
{
    const block_interleaver interleaver(4, 8);
    const auto bits = random_bits(32 * 3, 31);
    const auto shuffled = interleaver.interleave(bits);
    EXPECT_EQ(interleaver.deinterleave(shuffled), bits);
}

TEST(interleaver, spreads_bursts)
{
    const block_interleaver interleaver(8, 16);
    std::vector<std::uint8_t> bits(128, 0);
    auto shuffled = interleaver.interleave(bits);
    // Burst of 8 consecutive errors on the channel...
    for (std::size_t i = 40; i < 48; ++i) shuffled[i] ^= 1;
    const auto restored = interleaver.deinterleave(shuffled);
    // ...must land at least `rows` apart after deinterleaving.
    std::vector<std::size_t> error_positions;
    for (std::size_t i = 0; i < restored.size(); ++i) {
        if (restored[i] != 0) error_positions.push_back(i);
    }
    ASSERT_EQ(error_positions.size(), 8u);
    for (std::size_t i = 1; i < error_positions.size(); ++i) {
        EXPECT_GE(error_positions[i] - error_positions[i - 1], 8u);
    }
}

TEST(interleaver, soft_matches_hard_permutation)
{
    const block_interleaver interleaver(4, 4);
    const auto bits = random_bits(16, 37);
    const auto shuffled = interleaver.interleave(bits);
    std::vector<double> soft;
    for (auto b : shuffled) soft.push_back(b ? -1.0 : 1.0);
    const auto soft_restored = interleaver.deinterleave_soft(soft);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        EXPECT_EQ(soft_restored[i] < 0.0 ? 1 : 0, bits[i]);
    }
}

TEST(interleaver, pads_to_block)
{
    const block_interleaver interleaver(3, 5);
    const auto out = interleaver.interleave(random_bits(7, 41));
    EXPECT_EQ(out.size(), 15u);
}

} // namespace
} // namespace mmtag::fec
