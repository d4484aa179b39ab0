#include "mmtag/tag/energy_model.hpp"

#include <stdexcept>

namespace mmtag::tag {

namespace {

/// Effective energy per switch transition including the driver's CV^2 swing
/// on the control line (GaAs switches need volts of swing on tens of pF at
/// high toggle rates).
constexpr double energy_per_transition_j = 3.7e-9;
constexpr double switch_static_w = 1.8e-3; ///< bias of the switch die(s)
constexpr double detector_bias_w = 0.3e-3; ///< envelope detector + comparator
constexpr double mcu_active_w = 5.76e-3;   ///< MSP430-class MCU, active
constexpr double mcu_sleep_w = 2e-6;       ///< LPM3-class sleep

} // namespace

double energy_model::sleep_power_w() const
{
    return mcu_sleep_w;
}

double energy_model::listen_power_w() const
{
    return mcu_sleep_w + detector_bias_w;
}

double energy_model::transmit_power_w(double symbol_rate_hz,
                                      double transitions_per_symbol) const
{
    if (symbol_rate_hz <= 0.0) throw std::invalid_argument("energy_model: symbol rate <= 0");
    if (transitions_per_symbol < 0.0) {
        throw std::invalid_argument("energy_model: negative transition density");
    }
    const double dynamic =
        symbol_rate_hz * transitions_per_symbol * energy_per_transition_j;
    return mcu_active_w + switch_static_w + detector_bias_w + dynamic;
}

double energy_model::frame_energy_j(const modulated_frame& frame) const
{
    if (frame.duration_s <= 0.0) throw std::invalid_argument("energy_model: empty frame");
    const double static_power = mcu_active_w + switch_static_w + detector_bias_w;
    return static_power * frame.duration_s +
           static_cast<double>(frame.transitions) * energy_per_transition_j;
}

double energy_model::energy_per_bit(const phy::frame_config& frame, double symbol_rate_hz) const
{
    const double m = static_cast<double>(phy::constellation_size(frame.scheme));
    const double transitions_per_symbol = (m - 1.0) / m;
    const double power = transmit_power_w(symbol_rate_hz, transitions_per_symbol);
    const double bit_rate = symbol_rate_hz * phy::mcs{frame.scheme, frame.fec}.efficiency();
    return power / bit_rate;
}

} // namespace mmtag::tag
