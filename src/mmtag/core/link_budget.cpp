#include "mmtag/core/link_budget.hpp"

#include <stdexcept>

#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/rf/noise.hpp"

namespace mmtag::core {

link_budget::link_budget(const system_config& cfg)
{
    validate(cfg);
    const channel::backscatter_channel chan(make_channel_config(cfg));
    gains_ = chan.path_gains();
    fading_power_ = std::norm(chan.fading_coefficient());
    tx_power_w_ = dbm_to_watt(cfg.transmitter.tx_power_dbm);
    // The reflected field is scaled by Gamma_eff = switch insertion loss x
    // stub loss; both appear once in the reflected power.
    gamma_loss_db_ = cfg.modulator.rf_switch.insertion_loss_db + cfg.modulator.bank.stub_loss_db;
    // Per-symbol noise: kT * NF over the symbol-rate bandwidth.
    const double noise_w = rf::thermal_noise_power(cfg.symbol_rate_hz) *
                           from_db(cfg.receiver.lna.noise_figure_db);
    noise_floor_dbm_ = watt_to_dbm(noise_w);
    static_interference_dbm_ = watt_to_dbm(chan.static_interference_power(tx_power_w_));
}

link_budget_entry link_budget::at(double distance_m) const
{
    if (distance_m <= 0.0) throw std::invalid_argument("link_budget: distance <= 0");
    const channel::tag_path_amplitudes path = channel::tag_path_at(gains_, distance_m);

    link_budget_entry entry;
    entry.distance_m = distance_m;
    entry.incident_at_tag_dbm = watt_to_dbm(tx_power_w_ * path.one_way * path.one_way);
    entry.received_at_ap_dbm =
        watt_to_dbm(tx_power_w_ * path.round_trip * path.round_trip * fading_power_) -
        gamma_loss_db_;
    entry.static_interference_dbm = static_interference_dbm_;
    entry.noise_floor_dbm = noise_floor_dbm_;
    entry.snr_db = entry.received_at_ap_dbm - entry.noise_floor_dbm;
    return entry;
}

std::vector<link_budget_entry> link_budget::sweep(double start_m, double stop_m,
                                                  std::size_t points) const
{
    if (points < 2 || !(start_m > 0.0 && stop_m > start_m)) {
        throw std::invalid_argument("link_budget: bad sweep parameters");
    }
    std::vector<link_budget_entry> entries;
    entries.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double d = start_m + (stop_m - start_m) * static_cast<double>(i) /
                                       static_cast<double>(points - 1);
        entries.push_back(at(d));
    }
    return entries;
}

double link_budget::max_range_m(double required_snr_db) const
{
    // SNR falls 40 dB/decade in distance (d^-4); bisect on log distance.
    double low = 0.05;
    double high = 1000.0;
    if (at(low).snr_db < required_snr_db) return 0.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = std::sqrt(low * high);
        if (at(mid).snr_db >= required_snr_db) low = mid;
        else high = mid;
    }
    return low;
}

} // namespace mmtag::core
