// Quadrature mixer model: ideal complex multiply plus the practical
// impairments that matter at mmWave — conversion loss and LO leakage (the DC
// offset the canceller must handle).
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class quadrature_mixer {
public:
    struct config {
        double conversion_loss_db = 7.0;  ///< typical passive mmWave mixer
        double lo_leakage_dbc = -60.0;    ///< LO-to-IF leakage vs LO drive
    };

    explicit quadrature_mixer(const config& cfg);

    /// Downconverts: output = rf * conj(lo) with impairments applied.
    [[nodiscard]] cf64 downconvert(cf64 rf, cf64 lo) const;

    [[nodiscard]] cvec downconvert(std::span<const cf64> rf, std::span<const cf64> lo) const;

private:
    double loss_gain_;
    double leakage_amplitude_;
};

} // namespace mmtag::rf
