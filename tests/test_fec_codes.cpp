#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "mmtag/fec/convolutional.hpp"
#include "mmtag/fec/hamming.hpp"
#include "mmtag/fec/interleaver.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::fec {
namespace {

using mmtag::phy::random_bits;

// The decoder as it was before the branch-table rewrite, kept verbatim as
// the reference the current decoder must match bit for bit.
namespace reference {

// K=7 (133, 171) octal generators; 64 trellis states.
constexpr unsigned constraint = 7;
constexpr unsigned state_bits = constraint - 1;
constexpr unsigned state_count = 1u << state_bits;
constexpr unsigned g0 = 0133; // 0b1'011'011
constexpr unsigned g1 = 0171; // 0b1'111'001

/// Output pair for (input bit, state). State holds the previous `state_bits`
/// inputs with the most recent in the MSB.
std::array<std::uint8_t, 2> encoder_output(unsigned input, unsigned state)
{
    const unsigned window = (input << state_bits) | state;
    const auto c0 = static_cast<std::uint8_t>(std::popcount(window & g0) & 1);
    const auto c1 = static_cast<std::uint8_t>(std::popcount(window & g1) & 1);
    return {c0, c1};
}

unsigned next_state(unsigned input, unsigned state)
{
    return ((input << state_bits) | state) >> 1;
}

/// Kept positions within a puncturing period of the flattened c0/c1 stream.
bool is_kept(code_rate rate, std::size_t flat_index)
{
    switch (rate) {
    case code_rate::half:
        return true;
    case code_rate::two_thirds:
        return flat_index % 4 != 3;
    case code_rate::three_quarters: {
        const std::size_t m = flat_index % 6;
        return m == 0 || m == 1 || m == 2 || m == 5;
    }
    }
    throw std::invalid_argument("convolutional: unknown code rate");
}

std::size_t punctured_length(code_rate rate, std::size_t flat_length)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flat_length; ++i) {
        if (is_kept(rate, i)) ++kept;
    }
    return kept;
}

/// Core Viterbi over depunctured soft pairs. Sign convention: soft > 0 means
/// bit 0, soft < 0 means bit 1, soft == 0 means erasure.
std::vector<std::uint8_t> viterbi_core(std::span<const double> soft_pairs)
{
    if (soft_pairs.size() % 2 != 0) {
        throw std::invalid_argument("viterbi: coded stream must contain bit pairs");
    }
    const std::size_t steps = soft_pairs.size() / 2;
    if (steps < state_bits) {
        throw std::invalid_argument("viterbi: stream shorter than the trellis tail");
    }

    constexpr double negative_infinity = -std::numeric_limits<double>::infinity();
    std::vector<double> metric(state_count, negative_infinity);
    metric[0] = 0.0;
    std::vector<double> next_metric(state_count);
    // survivors[t][state] = input bit that led into `state` at step t plus the
    // predecessor encoded in one byte (bit0 = input, bits 1..6 = predecessor).
    std::vector<std::vector<std::uint8_t>> survivors(steps,
                                                     std::vector<std::uint8_t>(state_count, 0));

    for (std::size_t t = 0; t < steps; ++t) {
        std::fill(next_metric.begin(), next_metric.end(), negative_infinity);
        const double soft0 = soft_pairs[2 * t];
        const double soft1 = soft_pairs[2 * t + 1];
        for (unsigned state = 0; state < state_count; ++state) {
            if (metric[state] == negative_infinity) continue;
            for (unsigned input = 0; input <= 1; ++input) {
                const auto expected = encoder_output(input, state);
                // Correlation metric: +|soft| when the hypothesis matches the
                // observed sign, -|soft| otherwise, 0 for erasures.
                const double branch = (expected[0] ? -soft0 : soft0) +
                                      (expected[1] ? -soft1 : soft1);
                const unsigned to = next_state(input, state);
                const double candidate = metric[state] + branch;
                if (candidate > next_metric[to]) {
                    next_metric[to] = candidate;
                    survivors[t][to] =
                        static_cast<std::uint8_t>((state << 1) | input);
                }
            }
        }
        metric.swap(next_metric);
    }

    // The encoder appends zeros, so the terminated trellis ends in state 0.
    unsigned state = 0;
    std::vector<std::uint8_t> decoded(steps);
    for (std::size_t t = steps; t-- > 0;) {
        const std::uint8_t record = survivors[t][state];
        decoded[t] = record & 1u;
        state = record >> 1;
    }
    decoded.resize(steps - state_bits); // strip the termination tail
    return decoded;
}

std::vector<double> depuncture(std::span<const double> soft_bits, code_rate rate,
                               std::size_t flat_length)
{
    std::vector<double> full(flat_length, 0.0);
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < flat_length; ++i) {
        if (!is_kept(rate, i)) continue;
        if (consumed >= soft_bits.size()) {
            throw std::invalid_argument("viterbi: punctured stream shorter than expected");
        }
        full[i] = soft_bits[consumed++];
    }
    if (consumed != soft_bits.size()) {
        throw std::invalid_argument("viterbi: punctured stream length does not match rate");
    }
    return full;
}

/// Finds the flat (unpunctured) length whose punctured size equals the input.
std::size_t infer_flat_length(code_rate rate, std::size_t punctured)
{
    // Flat length is always even (bit pairs); scan candidate lengths.
    for (std::size_t flat = 0; flat <= punctured * 2 + 8; flat += 2) {
        if (punctured_length(rate, flat) == punctured) return flat;
    }
    throw std::invalid_argument("viterbi: input length inconsistent with code rate");
}

std::vector<std::uint8_t> reference_encode(std::span<const std::uint8_t> bits, code_rate rate)
{
    std::vector<std::uint8_t> flat;
    flat.reserve(2 * (bits.size() + state_bits));
    unsigned state = 0;
    auto push = [&](unsigned input) {
        const auto out = encoder_output(input, state);
        flat.push_back(out[0]);
        flat.push_back(out[1]);
        state = next_state(input, state);
    };
    for (std::uint8_t bit : bits) push(bit & 1u);
    for (unsigned i = 0; i < state_bits; ++i) push(0); // terminate the trellis
    std::vector<std::uint8_t> out;
    out.reserve(punctured_length(rate, flat.size()));
    for (std::size_t i = 0; i < flat.size(); ++i) {
        if (is_kept(rate, i)) out.push_back(flat[i]);
    }
    return out;
}

std::vector<std::uint8_t> reference_viterbi(std::span<const double> soft_bits, code_rate rate)
{
    const std::size_t flat_length = infer_flat_length(rate, soft_bits.size());
    const std::vector<double> full = depuncture(soft_bits, rate, flat_length);
    return viterbi_core(full);
}

std::vector<std::uint8_t> reference_viterbi(std::span<const std::uint8_t> coded_bits, code_rate rate)
{
    std::vector<double> soft;
    soft.reserve(coded_bits.size());
    for (std::uint8_t bit : coded_bits) soft.push_back((bit & 1u) ? -1.0 : 1.0);
    return reference_viterbi(soft, rate);
}

} // namespace reference

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

/// Info lengths the reference comparisons run over: every length up to 300
/// bits (every puncturing phase and tail position) plus one long frame.
std::vector<std::size_t> reference_lengths()
{
    std::vector<std::size_t> lengths(301);
    for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
    lengths.push_back(4128);
    return lengths;
}

/// Decoded bits as '0'/'1' text, or the std::invalid_argument message.
template <class Decode>
std::string decode_or_message(Decode decode)
{
    try {
        std::string text;
        for (const std::uint8_t bit : decode()) text.push_back(static_cast<char>('0' + bit));
        return text;
    } catch (const std::invalid_argument& error) {
        return std::string("invalid_argument: ") + error.what();
    }
}

/// Soft values for `coded` through `value(bit, rng)`, seeded per length.
template <class Value>
std::vector<double> soft_values(std::span<const std::uint8_t> coded, std::uint64_t seed,
                                Value value)
{
    std::mt19937_64 rng(seed);
    std::vector<double> soft;
    soft.reserve(coded.size());
    for (const std::uint8_t bit : coded) soft.push_back(value(bit, rng));
    return soft;
}

class viterbi_reference : public ::testing::TestWithParam<code_rate> {};

TEST_P(viterbi_reference, encoder_and_lengths_match)
{
    for (const std::size_t n : reference_lengths()) {
        const auto bits = random_bits(n, 1000 + n);
        const auto coded = convolutional_encode(bits, GetParam());
        ASSERT_EQ(coded, reference::reference_encode(bits, GetParam())) << n;
        ASSERT_EQ(coded_length(n, GetParam()), coded.size()) << n;
    }
}

TEST_P(viterbi_reference, hard_decisions_with_flips)
{
    for (const std::size_t n : reference_lengths()) {
        auto coded = convolutional_encode(random_bits(n, 2000 + n), GetParam());
        std::mt19937_64 rng(3000 + n);
        std::bernoulli_distribution flip(0.08);
        for (auto& bit : coded) bit ^= flip(rng) ? 1 : 0;
        ASSERT_EQ(viterbi_decode(coded, GetParam()), reference::reference_viterbi(coded, GetParam()))
            << n;
    }
}

TEST_P(viterbi_reference, exact_ties_erasures_and_sign_flips)
{
    // Only +-1 and 0.0: path metrics are small integers, so equal-metric
    // merges (where the tie rule decides) happen on nearly every step. With
    // a 1e-9 jitter the merges become near-ties that only double metrics
    // resolve (float metrics would round them back into ties).
    for (const double jitter : {0.0, 1e-9}) {
        for (const std::size_t n : reference_lengths()) {
            const auto coded = convolutional_encode(random_bits(n, 4000 + n), GetParam());
            const auto soft =
                soft_values(coded, 5000 + n, [jitter](std::uint8_t bit, std::mt19937_64& rng) {
                    std::uniform_int_distribution<int> kind(0, 9);
                    std::normal_distribution<double> noise(0.0, 1.0);
                    const int k = kind(rng);
                    const double value = k < 2 ? 0.0 : (bit ? -1.0 : 1.0) * (k < 3 ? -1.0 : 1.0);
                    return jitter > 0.0 ? value + jitter * noise(rng) : value;
                });
            ASSERT_EQ(viterbi_decode_soft(soft, GetParam()),
                      reference::reference_viterbi(soft, GetParam()))
                << n << " jitter " << jitter;
        }
    }
}

TEST_P(viterbi_reference, gaussian_soft_values)
{
    // 0 dB per coded bit: deep in the waterfall, where near-tie decisions
    // decide the output.
    for (const std::size_t n : reference_lengths()) {
        const auto coded = convolutional_encode(random_bits(n, 6000 + n), GetParam());
        const auto soft = soft_values(coded, 7000 + n, [](std::uint8_t bit, std::mt19937_64& rng) {
            std::normal_distribution<double> noise(0.0, 1.0);
            return (bit ? -1.0 : 1.0) + noise(rng);
        });
        ASSERT_EQ(viterbi_decode_soft(soft, GetParam()), reference::reference_viterbi(soft, GetParam()))
            << n;
    }
}

TEST_P(viterbi_reference, non_finite_soft_values)
{
    // Two infinite, NaN or -0.0 values per input: infinities turn unreached
    // states' -inf into NaN unless the decoder keeps them at -inf, and a NaN
    // leaves every state unreached; the decoders must still agree.
    constexpr double inf = std::numeric_limits<double>::infinity();
    const std::array<double, 4> specials{inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                                         -0.0};
    for (std::size_t n = 0; n <= 120; ++n) {
        const auto coded = convolutional_encode(random_bits(n, 8000 + n), GetParam());
        auto soft = soft_values(coded, 9000 + n, [](std::uint8_t bit, std::mt19937_64& rng) {
            std::normal_distribution<double> noise(0.0, 0.5);
            return (bit ? -1.0 : 1.0) + noise(rng);
        });
        std::mt19937_64 rng(10000 + n);
        std::uniform_int_distribution<std::size_t> where(0, soft.size() - 1);
        soft[where(rng)] = specials[n % specials.size()];
        soft[where(rng)] = specials[(n / specials.size()) % specials.size()];
        ASSERT_EQ(viterbi_decode_soft(soft, GetParam()), reference::reference_viterbi(soft, GetParam()))
            << n;
    }
}

TEST_P(viterbi_reference, accepts_and_rejects_the_same_lengths)
{
    for (std::size_t length = 0; length <= 400; ++length) {
        const auto soft = soft_values(std::vector<std::uint8_t>(length, 0), length,
                                      [](std::uint8_t, std::mt19937_64& rng) {
                                          return rng() % 2 ? 1.0 : -1.0;
                                      });
        ASSERT_EQ(decode_or_message([&] { return viterbi_decode_soft(soft, GetParam()); }),
                  decode_or_message([&] { return reference::reference_viterbi(soft, GetParam()); }))
            << length;
    }
}

INSTANTIATE_TEST_SUITE_P(rates, viterbi_reference,
                         ::testing::Values(code_rate::half, code_rate::two_thirds,
                                           code_rate::three_quarters));

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
