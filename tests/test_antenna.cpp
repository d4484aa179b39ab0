#include <gtest/gtest.h>

#include <memory>

#include "mmtag/antenna/element.hpp"
#include "mmtag/antenna/termination.hpp"
#include "mmtag/antenna/van_atta.hpp"

namespace mmtag::antenna {
namespace {

TEST(element, patch_peak_and_rolloff)
{
    patch_element patch(6.5, 1.3);
    EXPECT_NEAR(to_db(patch.gain(0.0)), 6.5, 1e-9);
    EXPECT_LT(patch.gain(deg_to_rad(60.0)), patch.gain(0.0));
    EXPECT_DOUBLE_EQ(patch.gain(deg_to_rad(95.0)), 0.0); // behind ground plane
}

TEST(element, patch_beamwidth_consistent_with_pattern)
{
    // cos^(2q)(theta) = 1/2 at theta = acos(2^(-1/(2q))), q = 1.3 by default.
    patch_element patch;
    const double half = std::acos(std::pow(2.0, -1.0 / (2.0 * 1.3)));
    EXPECT_NEAR(patch.gain(half) / patch.peak_gain(), 0.5, 1e-6);
}

TEST(termination, canonical_loads)
{
    EXPECT_EQ(gamma_short(), (cf64{-1.0, 0.0}));
    EXPECT_EQ(gamma_matched(), (cf64{0.0, 0.0}));
}

TEST(termination, quarter_wave_short_becomes_open)
{
    const cf64 gamma = line_transform(gamma_short(), pi / 2.0);
    EXPECT_NEAR(std::abs(gamma - cf64{1.0, 0.0}), 0.0, 1e-12);
}

TEST(termination, lossy_line_shrinks_gamma)
{
    const cf64 gamma = line_transform_lossy(gamma_short(), pi / 4.0, 3.0);
    EXPECT_NEAR(std::abs(gamma), std::pow(10.0, -6.0 / 20.0), 1e-9);
}

class van_atta_retro : public ::testing::TestWithParam<std::size_t> {};

TEST_P(van_atta_retro, monostatic_gain_equals_n_squared_times_element)
{
    const std::size_t n = GetParam();
    van_atta_array::config cfg;
    cfg.element_count = n;
    cfg.line_loss_db = 0.0;
    const auto iso = std::make_shared<isotropic_element>();
    van_atta_array array(cfg, iso);
    // Retro-reflection is coherent at every angle for isotropic elements.
    for (double deg : {-50.0, -20.0, 0.0, 35.0, 55.0}) {
        EXPECT_NEAR(array.monostatic_gain(deg_to_rad(deg)),
                    static_cast<double>(n * n), 1e-6)
            << "angle " << deg;
    }
}

INSTANTIATE_TEST_SUITE_P(element_counts, van_atta_retro, ::testing::Values(2u, 4u, 8u, 16u));

TEST(van_atta, patch_elements_limit_field_of_view)
{
    van_atta_array::config cfg;
    cfg.element_count = 8;
    cfg.line_loss_db = 0.0;
    van_atta_array array(cfg, std::make_shared<patch_element>());
    const double fov = array.field_of_view(3.0);
    // Patch cos^2q roll-off: 3 dB two-way droop near +-16 degrees.
    EXPECT_GT(fov, deg_to_rad(20.0));
    EXPECT_LT(fov, deg_to_rad(60.0));
}

TEST(van_atta, gamma_scales_reflection_power)
{
    van_atta_array::config cfg;
    cfg.element_count = 4;
    cfg.line_loss_db = 0.0;
    van_atta_array array(cfg, std::make_shared<isotropic_element>());
    const double full = array.monostatic_gain(0.3, cf64{-1.0, 0.0});
    const double half_field = array.monostatic_gain(0.3, cf64{0.5, 0.0});
    EXPECT_NEAR(half_field / full, 0.25, 1e-9);
    EXPECT_NEAR(array.monostatic_gain(0.3, cf64{}), 0.0, 1e-12); // absorptive
}

TEST(van_atta, line_loss_reduces_gain)
{
    van_atta_array::config lossless;
    lossless.element_count = 8;
    lossless.line_loss_db = 0.0;
    van_atta_array a(lossless, std::make_shared<isotropic_element>());
    van_atta_array::config lossy = lossless;
    lossy.line_loss_db = 3.0;
    van_atta_array b(lossy, std::make_shared<isotropic_element>());
    // The pair line is traversed once per bounce: 3 dB field-squared loss.
    EXPECT_NEAR(to_db(a.monostatic_gain(0.0) / b.monostatic_gain(0.0)), 3.0, 1e-6);
}

TEST(van_atta, bistatic_peak_is_retro_not_specular)
{
    van_atta_array::config cfg;
    cfg.element_count = 8;
    cfg.line_loss_db = 0.0;
    van_atta_array array(cfg, std::make_shared<isotropic_element>());
    const double theta_in = deg_to_rad(30.0);
    const double retro = std::norm(array.bistatic_coupling(theta_in, theta_in, cf64{-1.0, 0.0}));
    const double specular =
        std::norm(array.bistatic_coupling(theta_in, -theta_in, cf64{-1.0, 0.0}));
    EXPECT_GT(retro, specular * 10.0);
}

TEST(van_atta, flat_plate_is_specular_not_retro)
{
    const auto iso = std::make_shared<isotropic_element>();
    flat_plate_reflector plate(8, 0.5, iso);
    const double theta = deg_to_rad(30.0);
    const double retro = plate.monostatic_gain(theta);
    const double broadside = plate.monostatic_gain(0.0);
    EXPECT_NEAR(broadside, 64.0, 1e-6); // coherent at normal incidence
    EXPECT_LT(retro, broadside / 20.0); // collapses off-normal
    // Specular bistatic lobe is strong.
    const double specular = std::norm(plate.bistatic_coupling(theta, -theta, cf64{-1.0, 0.0}));
    EXPECT_NEAR(specular, 64.0, 1e-6);
}

TEST(van_atta, validation)
{
    van_atta_array::config cfg;
    cfg.element_count = 7; // odd
    EXPECT_THROW(van_atta_array(cfg, std::make_shared<isotropic_element>()),
                 std::invalid_argument);
    cfg.element_count = 8;
    EXPECT_THROW(van_atta_array(cfg, nullptr), std::invalid_argument);
}

} // namespace
} // namespace mmtag::antenna
