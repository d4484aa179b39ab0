#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag {
namespace {

TEST(common, db_round_trip)
{
    EXPECT_DOUBLE_EQ(to_db(1.0), 0.0);
    EXPECT_DOUBLE_EQ(to_db(10.0), 10.0);
    EXPECT_NEAR(from_db(to_db(0.004)), 0.004, 1e-15);
    EXPECT_NEAR(to_db(from_db(-37.2)), -37.2, 1e-12);
}

TEST(common, to_db_rejects_nonpositive)
{
    EXPECT_THROW((void)to_db(0.0), std::invalid_argument);
    EXPECT_THROW((void)to_db(-1.0), std::invalid_argument);
}

TEST(common, dbm_conversions)
{
    EXPECT_DOUBLE_EQ(watt_to_dbm(1.0), 30.0);
    EXPECT_NEAR(dbm_to_watt(0.0), 1e-3, 1e-15);
    EXPECT_NEAR(dbm_to_watt(27.0), 0.5012, 1e-3);
}

TEST(common, wavelength_at_24_ghz)
{
    EXPECT_NEAR(wavelength(24e9), 0.012491, 1e-5);
    EXPECT_THROW((void)wavelength(0.0), std::invalid_argument);
}

TEST(common, angle_conversions)
{
    EXPECT_DOUBLE_EQ(deg_to_rad(180.0), pi);
    EXPECT_DOUBLE_EQ(rad_to_deg(pi / 2.0), 90.0);
}

TEST(common, wrap_phase_range)
{
    for (double raw : {0.0, 3.0, -3.0, 7.5, -7.5, 100.0, -100.0, pi, -pi}) {
        const double wrapped = wrap_phase(raw);
        EXPECT_GT(wrapped, -pi - 1e-12);
        EXPECT_LE(wrapped, pi + 1e-12);
        // Same angle modulo 2 pi.
        EXPECT_NEAR(std::cos(wrapped), std::cos(raw), 1e-12);
        EXPECT_NEAR(std::sin(wrapped), std::sin(raw), 1e-12);
    }
}

TEST(common, wrap_phase_matches_the_remainder_form_bit_for_bit)
{
    const auto remainder_form = [](double radians) {
        double wrapped = std::remainder(radians, two_pi);
        if (wrapped <= -pi) wrapped += two_pi;
        return wrapped;
    };
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> inputs{pi,
                               -pi,
                               std::nextafter(pi, 0.0),
                               std::nextafter(-pi, 0.0),
                               std::nextafter(pi, inf),
                               std::nextafter(-pi, -inf),
                               two_pi,
                               -two_pi,
                               0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               1e6,
                               -1e6,
                               1e300,
                               -1e300,
                               inf,
                               -inf,
                               std::numeric_limits<double>::quiet_NaN()};
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> angle(-4.0 * pi, 4.0 * pi);
    for (int i = 0; i < 100000; ++i) inputs.push_back(angle(rng));
    for (const double x : inputs) {
        const double want = remainder_form(x);
        const double got = wrap_phase(x);
        if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got)) << x;
        } else {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want)) << x;
        }
    }
}

} // namespace
} // namespace mmtag
