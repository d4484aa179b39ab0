#include "mmtag/channel/backscatter_channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "mmtag/channel/atmosphere.hpp"
#include "mmtag/channel/fading.hpp"
#include "mmtag/channel/path_loss.hpp"

namespace mmtag::channel {

tag_path_amplitudes tag_path_at(const tag_path_gains& gains, double distance_m)
{
    const double atmospheric =
        from_db(-atmospheric_loss_db(distance_m, gains.atmospheric_db_per_km));
    const double round_trip_power =
        backscatter_received_power(1.0, gains.ap_tx, gains.ap_rx, gains.tag_backscatter,
                                   distance_m, gains.frequency_hz);
    const double one_way_power = one_way_received_power(1.0, gains.ap_tx, gains.tag_aperture,
                                                        distance_m, gains.frequency_hz);
    // Two-way gaseous loss; implementation loss budgeted once on the tag path.
    return {.round_trip = std::sqrt(round_trip_power) * atmospheric * gains.implementation,
            .one_way = std::sqrt(one_way_power * atmospheric) * std::sqrt(gains.implementation)};
}

backscatter_channel::backscatter_channel(const config& cfg) : cfg_(cfg)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("backscatter_channel: fs <= 0");
    if (cfg.distance_m <= 0.0) throw std::invalid_argument("backscatter_channel: distance <= 0");

    const double one_way_seconds = cfg.distance_m / speed_of_light;
    one_way_delay_ = static_cast<std::size_t>(std::round(one_way_seconds * cfg.sample_rate_hz));
    round_trip_delay_ = 2 * one_way_delay_;

    gains_.frequency_hz = cfg.frequency_hz;
    gains_.ap_tx = from_db(cfg.ap_tx_gain_dbi);
    gains_.ap_rx = from_db(cfg.ap_rx_gain_dbi);
    gains_.tag_backscatter = from_db(cfg.tag_backscatter_gain_db);
    gains_.tag_aperture = from_db(cfg.tag_aperture_gain_db);
    gains_.atmospheric_db_per_km =
        gaseous_attenuation_db_per_km(cfg.frequency_hz) +
        rain_attenuation_db_per_km(cfg.frequency_hz, cfg.rain_rate_mm_per_hr);
    if (cfg.implementation_loss_db < 0.0) {
        throw std::invalid_argument("backscatter_channel: negative implementation loss");
    }
    gains_.implementation = std::pow(10.0, -cfg.implementation_loss_db / 20.0);
    round_trip_amplitude_ = tag_path_at(gains_, cfg.distance_m).round_trip;

    leakage_amplitude_ = std::pow(10.0, cfg.tx_leakage_db / 20.0);

    redraw_fading(cfg.fading_seed);

    for (const auto& reflector : cfg.clutter) {
        if (reflector.distance_m <= 0.0 || reflector.rcs_m2 <= 0.0) {
            throw std::invalid_argument("backscatter_channel: invalid clutter entry");
        }
        const double lambda = wavelength(cfg.frequency_hz);
        // Radar equation for a point scatterer of RCS sigma, knocked down by
        // the AP's sidelobe discrimination toward it.
        const double power = gains_.ap_tx * gains_.ap_rx * lambda * lambda * reflector.rcs_m2 *
                             from_db(-reflector.antenna_discrimination_db) /
                             (std::pow(4.0 * pi, 3.0) * std::pow(reflector.distance_m, 4.0));
        clutter_amplitudes_.push_back(std::sqrt(power));
        const double delay_seconds = 2.0 * reflector.distance_m / speed_of_light;
        clutter_delays_.push_back(
            static_cast<std::size_t>(std::round(delay_seconds * cfg.sample_rate_hz)));
    }
}

void backscatter_channel::redraw_fading(std::uint64_t seed)
{
    if (cfg_.rician_k_db >= 80.0) {
        fading_ = cf64{1.0, 0.0}; // effectively pure LOS
        return;
    }
    std::mt19937_64 rng(seed);
    fading_ = rician_coefficient(cfg_.rician_k_db, rng);
}

cvec backscatter_channel::ap_received(std::span<const cf64> tx,
                                      std::span<const cf64> tag_gamma) const
{
    if (tag_gamma.empty()) {
        throw std::invalid_argument("backscatter_channel: empty tag reflection waveform");
    }
    cvec out(tx.size(), cf64{});

    // Direct TX -> RX leakage (zero delay at these scales).
    for (std::size_t k = 0; k < tx.size(); ++k) out[k] = leakage_amplitude_ * tx[k];

    // Static clutter returns.
    for (std::size_t c = 0; c < clutter_delays_.size(); ++c) {
        const std::size_t delay = clutter_delays_[c];
        const double amplitude = clutter_amplitudes_[c];
        for (std::size_t k = delay; k < tx.size(); ++k) {
            out[k] += amplitude * tx[k - delay];
        }
    }

    // The tag path: TX sample (k - d_rt) bounced off reflection state at tag
    // time (k - d1); indices outside the provided waveform clamp.
    const auto gamma_at = [&](std::size_t index) {
        if (index >= tag_gamma.size()) return tag_gamma.back();
        return tag_gamma[index];
    };
    const cf64 tag_gain = round_trip_amplitude_ * fading_;
    for (std::size_t k = round_trip_delay_; k < tx.size(); ++k) {
        const cf64 gamma = gamma_at(k - one_way_delay_);
        out[k] += tag_gain * gamma * tx[k - round_trip_delay_];
    }
    return out;
}

cvec backscatter_channel::tag_contribution(std::span<const cf64> tx,
                                           std::span<const cf64> tag_gamma) const
{
    if (tag_gamma.empty()) {
        throw std::invalid_argument("backscatter_channel: empty tag reflection waveform");
    }
    cvec out(tx.size(), cf64{});
    const auto gamma_at = [&](std::size_t index) {
        if (index >= tag_gamma.size()) return tag_gamma.back();
        return tag_gamma[index];
    };
    const cf64 tag_gain = round_trip_amplitude_ * fading_;
    for (std::size_t k = round_trip_delay_; k < tx.size(); ++k) {
        out[k] = tag_gain * gamma_at(k - one_way_delay_) * tx[k - round_trip_delay_];
    }
    return out;
}

double backscatter_channel::static_interference_power(double tx_power_w) const
{
    if (tx_power_w <= 0.0) throw std::invalid_argument("backscatter_channel: tx power <= 0");
    double power = leakage_amplitude_ * leakage_amplitude_;
    for (double a : clutter_amplitudes_) power += a * a;
    return tx_power_w * power;
}

} // namespace mmtag::channel
