#include "mmtag/core/baselines.hpp"

#include <cmath>
#include <stdexcept>

namespace mmtag::core {

namespace {

// Active radio components.
constexpr double pll_vco_w = 40e-3;
constexpr double mixer_w = 25e-3;
constexpr double pa_output_dbm = 10.0;
constexpr double pa_efficiency = 0.15;
constexpr double baseband_w = 80e-3;
constexpr std::size_t phased_array_elements = 16;
constexpr double per_element_w = 20e-3; ///< phase shifter + driver per element

// Actively steered tag.
constexpr std::size_t tag_array_elements = 8;
constexpr double tag_control_w = 10e-3;

} // namespace

double active_radio_model::total_power_w() const
{
    const double pa_power_w = std::pow(10.0, (pa_output_dbm - 30.0) / 10.0) / pa_efficiency;
    return pll_vco_w + mixer_w + pa_power_w + baseband_w +
           static_cast<double>(phased_array_elements) * per_element_w;
}

double active_radio_model::energy_per_bit(double data_rate_bps) const
{
    if (data_rate_bps <= 0.0) throw std::invalid_argument("active_radio_model: rate <= 0");
    return total_power_w() / data_rate_bps;
}

double phased_array_tag_model::total_power_w() const
{
    return static_cast<double>(tag_array_elements) * per_element_w + tag_control_w;
}

std::vector<energy_reference> literature_energy_points()
{
    return {
        {"mmTag (anchor)", 2.4e-9, 10e6,
         "uplink-only mmWave backscatter; figure cited by follow-up work"},
        {"WiFi backscatter", 1e-9, 1e6, "sub-6 GHz ambient backscatter class"},
        {"802.11ad radio", 15e-9, 100e6, "active 60 GHz radio at ~1.5 W"},
        {"active mmWave IoT radio", 4e-9, 100e6, "component-budget model below"},
    };
}

} // namespace mmtag::core
