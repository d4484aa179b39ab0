#include <gtest/gtest.h>

#include <random>

#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/line_code.hpp"

namespace mmtag::phy {
namespace {

const line_code all_codes[] = {line_code::nrz, line_code::fm0, line_code::miller2,
                               line_code::miller4};

class line_code_properties : public ::testing::TestWithParam<line_code> {};

TEST_P(line_code_properties, round_trip)
{
    const auto bits = random_bits(500, 3);
    const auto chips = encode_line_code(bits, GetParam());
    EXPECT_EQ(chips.size(), bits.size() * chips_per_bit(GetParam()));
    std::vector<double> soft;
    soft.reserve(chips.size());
    for (int c : chips) soft.push_back(static_cast<double>(c));
    EXPECT_EQ(decode_line_code(soft, GetParam()), bits);
}

TEST_P(line_code_properties, chips_are_antipodal)
{
    const auto chips = encode_line_code(random_bits(100, 5), GetParam());
    for (int c : chips) EXPECT_TRUE(c == 1 || c == -1);
}

TEST_P(line_code_properties, survives_scattered_chip_errors)
{
    // Isolated chip flips must not avalanche: decode correlates each bit
    // window against both hypotheses with the running state.
    const line_code code = GetParam();
    if (code == line_code::nrz) GTEST_SKIP() << "NRZ has 1 chip/bit: no redundancy";
    const auto bits = random_bits(400, 7);
    const auto chips = encode_line_code(bits, code);
    std::vector<double> soft;
    for (int c : chips) soft.push_back(static_cast<double>(c));
    // Flip ~1% of chips, spread out so no bit loses its majority.
    const std::size_t n = chips_per_bit(code);
    for (std::size_t i = 0; i + n <= soft.size(); i += 97 * n) soft[i] = -soft[i];
    const auto decoded = decode_line_code(soft, code);
    const std::size_t errors = hamming_distance(decoded, bits);
    EXPECT_LT(errors, bits.size() / 50);
}

TEST_P(line_code_properties, decodes_soft_amplitudes)
{
    std::mt19937_64 rng(11);
    std::normal_distribution<double> noise(0.0, 0.4);
    const line_code code = GetParam();
    const auto bits = random_bits(300, 13);
    const auto chips = encode_line_code(bits, code);
    std::vector<double> soft;
    for (int c : chips) soft.push_back(static_cast<double>(c) + noise(rng));
    const auto decoded = decode_line_code(soft, code);
    const std::size_t errors = hamming_distance(decoded, bits);
    // NRZ and FM0 share the same per-bit decision distance (FM0 is a
    // spectral code, not a coding-gain code); Miller correlates over half
    // its chips and tolerates this noise easily.
    const bool has_gain = code == line_code::miller2 || code == line_code::miller4;
    EXPECT_LT(static_cast<double>(errors) / 300.0, has_gain ? 0.004 : 0.03);
}

INSTANTIATE_TEST_SUITE_P(codes, line_code_properties, ::testing::ValuesIn(all_codes));

TEST(line_code, fm0_inverts_at_every_bit_boundary)
{
    const std::vector<std::uint8_t> bits{1, 1, 1, 1};
    const auto chips = encode_line_code(bits, line_code::fm0);
    // Data-1 has no mid-bit inversion; boundaries always invert.
    for (std::size_t b = 0; b + 1 < bits.size(); ++b) {
        EXPECT_EQ(chips[2 * b], chips[2 * b + 1]);           // flat inside a 1
        EXPECT_EQ(chips[2 * b + 1], -chips[2 * (b + 1)]);    // boundary inversion
    }
}

TEST(line_code, fm0_zero_has_midbit_transition)
{
    const std::vector<std::uint8_t> bits{0, 0};
    const auto chips = encode_line_code(bits, line_code::fm0);
    EXPECT_EQ(chips[0], -chips[1]);
    EXPECT_EQ(chips[2], -chips[3]);
}

TEST(line_code, dc_suppression_ordering)
{
    // The design motivation: FM0 and Miller move energy away from DC.
    const double nrz = dc_power_fraction(line_code::nrz, 0.01);
    const double fm0 = dc_power_fraction(line_code::fm0, 0.01);
    const double miller4 = dc_power_fraction(line_code::miller4, 0.01);
    EXPECT_LT(fm0, nrz / 5.0);
    EXPECT_LT(miller4, fm0);
    // Absolute levels within +-1% of the chip rate: NRZ keeps a DC share the
    // notch would cut, Miller-4 leaves almost nothing there.
    EXPECT_GT(nrz, 0.01);
    EXPECT_LT(miller4, 1e-3);
}

TEST(line_code, transition_cost_ordering)
{
    // The price: more subcarrier cycles toggle the switch more often.
    const double nrz = transitions_per_bit(line_code::nrz);
    const double fm0 = transitions_per_bit(line_code::fm0);
    const double miller2 = transitions_per_bit(line_code::miller2);
    const double miller4 = transitions_per_bit(line_code::miller4);
    EXPECT_NEAR(nrz, 0.5, 0.05); // random data
    EXPECT_GT(fm0, 1.0);
    EXPECT_GT(miller2, fm0);
    EXPECT_GT(miller4, miller2 * 1.5);
}

TEST(line_code, validation)
{
    EXPECT_THROW((void)decode_line_code(std::vector<double>{1.0}, line_code::fm0),
                 std::invalid_argument); // not a whole bit
    EXPECT_THROW((void)dc_power_fraction(line_code::fm0, 0.0), std::invalid_argument);
}

TEST(line_code, names)
{
    EXPECT_STREQ(line_code_name(line_code::fm0), "FM0");
    EXPECT_STREQ(line_code_name(line_code::miller4), "Miller-4");
}

} // namespace
} // namespace mmtag::phy
