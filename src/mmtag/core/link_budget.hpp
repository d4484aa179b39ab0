// Analytic link budget for the backscatter uplink — the closed-form
// prediction every simulated result is cross-checked against.
#pragma once

#include "mmtag/common.hpp"
#include "mmtag/core/config.hpp"

namespace mmtag::core {

struct link_budget_entry {
    double distance_m = 0.0;
    double incident_at_tag_dbm = 0.0;  ///< power collected by the tag aperture
    double received_at_ap_dbm = 0.0;   ///< tag-path power back at the AP
    double noise_floor_dbm = 0.0;      ///< kTB * NF in the symbol bandwidth
    double snr_db = 0.0;               ///< per-symbol SNR prediction
    double static_interference_dbm = 0.0;
};

/// Everything but the distance is evaluated once, at construction: at() is
/// one call of channel::tag_path_at plus the dB conversions.
class link_budget {
public:
    explicit link_budget(const system_config& cfg);

    /// Budget at one distance (other parameters from the system config).
    [[nodiscard]] link_budget_entry at(double distance_m) const;

    /// Sweep over [start, stop] with `points` samples.
    [[nodiscard]] std::vector<link_budget_entry> sweep(double start_m, double stop_m,
                                                       std::size_t points) const;

    /// Maximum range at which predicted SNR clears `required_snr_db`.
    [[nodiscard]] double max_range_m(double required_snr_db) const;

private:
    channel::tag_path_gains gains_;
    double fading_power_;            ///< |h|^2 of the tag path's block fading
    double tx_power_w_;
    double gamma_loss_db_;
    double noise_floor_dbm_;
    double static_interference_dbm_;
};

} // namespace mmtag::core
