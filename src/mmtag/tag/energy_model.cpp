#include "mmtag/tag/energy_model.hpp"

#include <stdexcept>

namespace mmtag::tag {

energy_model::energy_model() : energy_model(config{}) {}

energy_model::energy_model(const config& cfg) : cfg_(cfg)
{
    if (cfg.energy_per_transition_j < 0.0 || cfg.switch_static_w < 0.0 ||
        cfg.detector_bias_w < 0.0 || cfg.mcu_active_w < 0.0 || cfg.mcu_sleep_w < 0.0) {
        throw std::invalid_argument("energy_model: negative component budget");
    }
}

double energy_model::sleep_power_w() const
{
    return cfg_.mcu_sleep_w;
}

double energy_model::listen_power_w() const
{
    return cfg_.mcu_sleep_w + cfg_.detector_bias_w;
}

double energy_model::transmit_power_w(double symbol_rate_hz,
                                      double transitions_per_symbol) const
{
    if (symbol_rate_hz <= 0.0) throw std::invalid_argument("energy_model: symbol rate <= 0");
    if (transitions_per_symbol < 0.0) {
        throw std::invalid_argument("energy_model: negative transition density");
    }
    const double dynamic =
        symbol_rate_hz * transitions_per_symbol * cfg_.energy_per_transition_j;
    return cfg_.mcu_active_w + cfg_.switch_static_w + cfg_.detector_bias_w + dynamic;
}

double energy_model::frame_energy_j(const modulated_frame& frame) const
{
    if (frame.duration_s <= 0.0) throw std::invalid_argument("energy_model: empty frame");
    const double static_power = cfg_.mcu_active_w + cfg_.switch_static_w + cfg_.detector_bias_w;
    return static_power * frame.duration_s +
           static_cast<double>(frame.transitions) * cfg_.energy_per_transition_j;
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
