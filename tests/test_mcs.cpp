// The MCS value type: one (modulation, FEC) pair with one efficiency
// formula, exact equality, and the CLI tokens that name it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/phy/frame.hpp"

namespace mmtag::phy {
namespace {

constexpr std::pair<const char*, modulation> modulation_tokens[] = {
    {"bpsk", modulation::bpsk},
    {"qpsk", modulation::qpsk},
    {"8psk", modulation::psk8},
    {"16psk", modulation::psk16},
};

constexpr std::pair<const char*, fec_mode> fec_tokens[] = {
    {"none", fec_mode::uncoded},
    {"1/2", fec_mode::conv_half},
    {"2/3", fec_mode::conv_two_thirds},
    {"3/4", fec_mode::conv_three_quarters},
};

std::vector<mcs> all_pairs()
{
    std::vector<mcs> pairs;
    for (const auto& [m_token, scheme] : modulation_tokens) {
        for (const auto& [f_token, fec] : fec_tokens) pairs.push_back({scheme, fec});
    }
    return pairs;
}

TEST(mcs, efficiency_on_every_ladder_rung)
{
    // bits/symbol x code rate of each rung, as the ladder reported it
    // before the pair became one type.
    const double expected[] = {0.5, 1.0, 1.5, 2.25, 3.0, 4.0};
    const auto& ladder = ap::rate_table();
    ASSERT_EQ(ladder.size(), std::size(expected));
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        EXPECT_DOUBLE_EQ(ladder[i].efficiency(), expected[i]) << "rung " << i;
    }
}

TEST(mcs, equality_holds_exactly_on_equal_pairs)
{
    const auto pairs = all_pairs();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (std::size_t j = 0; j < pairs.size(); ++j) {
            EXPECT_EQ(pairs[i] == pairs[j], i == j) << i << " vs " << j;
        }
    }
}

TEST(mcs, cli_tokens_parse_for_every_pair)
{
    for (const auto& [m_token, scheme] : modulation_tokens) {
        for (const auto& [f_token, fec] : fec_tokens) {
            EXPECT_TRUE((mcs{parse_modulation(m_token), parse_fec(f_token)} ==
                         mcs{scheme, fec}))
                << m_token << " " << f_token;
        }
    }
}

TEST(mcs, unknown_or_miscased_tokens_are_rejected)
{
    EXPECT_THROW((void)parse_modulation("qam64"), std::invalid_argument);
    EXPECT_THROW((void)parse_modulation("QPSK"), std::invalid_argument);
    EXPECT_THROW((void)parse_fec("7/8"), std::invalid_argument);
}

} // namespace
} // namespace mmtag::phy
