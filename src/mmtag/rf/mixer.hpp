// Quadrature mixer model: ideal complex multiply plus the practical
// impairments that matter at mmWave — conversion loss, LO leakage (the DC
// offset the canceller must handle), and I/Q gain & phase imbalance.
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class quadrature_mixer {
public:
    struct config {
        double conversion_loss_db = 7.0;  ///< typical passive mmWave mixer
        double lo_leakage_dbc = -60.0;    ///< LO-to-IF leakage vs LO drive
        double iq_gain_imbalance_db = 0.0;
        double iq_phase_imbalance_deg = 0.0;
    };

    explicit quadrature_mixer(const config& cfg);

    /// Downconverts: output = rf * conj(lo) with impairments applied.
    [[nodiscard]] cf64 downconvert(cf64 rf, cf64 lo) const;

    [[nodiscard]] cvec downconvert(std::span<const cf64> rf, std::span<const cf64> lo) const;

private:
    [[nodiscard]] cf64 apply_iq_imbalance(cf64 x) const;

    config cfg_;
    double loss_gain_;
    double leakage_amplitude_;
    double gain_alpha_; // I/Q imbalance parameters
    double phase_beta_;
};

} // namespace mmtag::rf
