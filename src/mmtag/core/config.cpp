#include "mmtag/core/config.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace mmtag::core {

system_config default_scenario()
{
    system_config cfg;
    cfg.distance_m = 2.0;
    cfg.tag_incidence_rad = 0.0;
    cfg.sample_rate_hz = 250e6;
    cfg.symbol_rate_hz = 5e6;

    cfg.transmitter.tx_power_dbm = 27.0;
    cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
    cfg.transmitter.lo_linewidth_hz = 100.0; // bench-grade synthesizer
    cfg.transmitter.pa.gain_db = 30.0;
    cfg.transmitter.pa.output_saturation_dbm = 33.0;

    cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.samples_per_symbol =
        static_cast<std::size_t>(std::round(cfg.sample_rate_hz / cfg.symbol_rate_hz));
    cfg.receiver.lna.gain_db = 20.0;
    cfg.receiver.lna.noise_figure_db = 3.5;
    cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
    // The ADC must span the self-interference-to-tag dynamic range; 16-bit
    // SDR-class conversion keeps quantization below the thermal floor (the
    // R14 bench sweeps this).
    cfg.receiver.adc.bits = 16;
    cfg.receiver.adc.full_scale = 1.0;
    cfg.receiver.frame.scheme = phy::modulation::qpsk;
    cfg.receiver.frame.fec = phy::fec_mode::conv_half;

    cfg.van_atta.element_count = 8;
    cfg.van_atta.spacing_wavelengths = 0.5;
    cfg.van_atta.line_loss_db = 1.0;

    cfg.modulator.frame = cfg.receiver.frame;
    cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
    cfg.modulator.symbol_rate_hz = cfg.symbol_rate_hz;
    cfg.modulator.bank.stub_loss_db = 0.5;
    cfg.modulator.rf_switch.rise_fall_time_s = 2e-9;
    cfg.modulator.guard_symbols = 8;

    // Separate 20 dBi TX/RX horns: direct coupling is sidelobe-to-sidelobe.
    cfg.tx_leakage_db = -60.0;
    cfg.clutter = {
        {3.0, 0.5, 25.0},  // wall, off boresight
        {1.5, 0.05, 25.0}, // desk edge, off boresight
    };
    return cfg;
}

system_config fast_scenario()
{
    auto cfg = default_scenario();
    cfg.sample_rate_hz = 50e6;
    cfg.symbol_rate_hz = 5e6;
    cfg.transmitter.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.sample_rate_hz = cfg.sample_rate_hz;
    cfg.receiver.samples_per_symbol = 10;
    cfg.receiver.lna.bandwidth_hz = cfg.sample_rate_hz;
    cfg.modulator.sample_rate_hz = cfg.sample_rate_hz;
    return cfg;
}

system_config warehouse_scenario()
{
    auto cfg = fast_scenario();
    cfg.van_atta.element_count = 16; // range over rate
    cfg.modulator.frame.scheme = phy::modulation::qpsk;
    cfg.modulator.frame.fec = phy::fec_mode::conv_half;
    cfg.receiver.frame = cfg.modulator.frame;
    cfg.clutter = {
        {2.0, 0.3, 20.0},  // racking
        {3.5, 0.8, 22.0},  // far shelving
        {5.0, 1.5, 25.0},  // back wall
        {1.2, 0.05, 18.0}, // forklift mast
    };
    return cfg;
}

system_config wearable_scenario()
{
    auto cfg = fast_scenario();
    cfg.symbol_rate_hz = 12.5e6;
    cfg.receiver.samples_per_symbol = 4;
    cfg.modulator.symbol_rate_hz = cfg.symbol_rate_hz;
    cfg.modulator.frame.scheme = phy::modulation::psk8;
    cfg.modulator.frame.fec = phy::fec_mode::conv_two_thirds;
    cfg.receiver.frame = cfg.modulator.frame;
    cfg.distance_m = 1.5; // arm's length to a headset AP
    cfg.clutter = {{1.0, 0.02, 20.0}};
    return cfg;
}

channel::backscatter_channel::config make_channel_config(const system_config& cfg)
{
    channel::backscatter_channel::config chan;
    chan.frequency_hz = 24.125e9;
    chan.sample_rate_hz = cfg.sample_rate_hz;
    chan.distance_m = cfg.distance_m;
    chan.tag_incidence_rad = cfg.tag_incidence_rad;
    chan.ap_tx_gain_dbi = cfg.ap_tx_gain_dbi;
    chan.ap_rx_gain_dbi = cfg.ap_rx_gain_dbi;
    chan.tx_leakage_db = cfg.tx_leakage_db;
    chan.clutter = cfg.clutter;
    chan.rain_rate_mm_per_hr = cfg.rain_rate_mm_per_hr;
    chan.implementation_loss_db = cfg.implementation_loss_db;
    chan.rician_k_db = cfg.rician_k_db;
    chan.fading_seed = cfg.seed * 48271 + 11;

    const auto radiator = std::make_shared<antenna::patch_element>();
    if (cfg.reflector == reflector_kind::van_atta) {
        const antenna::van_atta_array array(cfg.van_atta, radiator);
        chan.tag_backscatter_gain_db =
            to_db(std::max(array.monostatic_gain(cfg.tag_incidence_rad), 1e-12));
    } else {
        const antenna::flat_plate_reflector plate(cfg.van_atta.element_count,
                                                  cfg.van_atta.spacing_wavelengths, radiator);
        chan.tag_backscatter_gain_db =
            to_db(std::max(plate.monostatic_gain(cfg.tag_incidence_rad), 1e-12));
    }
    // Receive aperture for the AP→tag path: N-element collecting area.
    chan.tag_aperture_gain_db =
        to_db(static_cast<double>(cfg.van_atta.element_count) *
              radiator->gain(cfg.tag_incidence_rad) + 1e-12);
    return chan;
}

void validate(const system_config& cfg)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("config: sample rate <= 0");
    if (cfg.symbol_rate_hz <= 0.0) throw std::invalid_argument("config: symbol rate <= 0");
    const double sps = cfg.sample_rate_hz / cfg.symbol_rate_hz;
    if (sps < 2.0) throw std::invalid_argument("config: fewer than 2 samples per symbol");
    if (std::abs(sps - std::round(sps)) > 1e-6) {
        throw std::invalid_argument("config: sample rate must be a multiple of symbol rate");
    }
    if (cfg.receiver.samples_per_symbol != static_cast<std::size_t>(std::round(sps))) {
        throw std::invalid_argument("config: receiver samples_per_symbol inconsistent");
    }
    if (cfg.modulator.sample_rate_hz != cfg.sample_rate_hz ||
        cfg.transmitter.sample_rate_hz != cfg.sample_rate_hz ||
        cfg.receiver.sample_rate_hz != cfg.sample_rate_hz) {
        throw std::invalid_argument("config: component sample rates diverge");
    }
    if (cfg.modulator.symbol_rate_hz != cfg.symbol_rate_hz) {
        throw std::invalid_argument("config: modulator symbol rate inconsistent");
    }
    if (cfg.distance_m <= 0.0) throw std::invalid_argument("config: distance <= 0");
    if (std::abs(cfg.tag_incidence_rad) >= pi / 2.0) {
        throw std::invalid_argument("config: tag incidence must be within (-90, 90) degrees");
    }
}

} // namespace mmtag::core
