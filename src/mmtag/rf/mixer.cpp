#include "mmtag/rf/mixer.hpp"

#include <stdexcept>

namespace mmtag::rf {

quadrature_mixer::quadrature_mixer(const config& cfg) : cfg_(cfg)
{
    if (cfg.conversion_loss_db < 0.0) {
        throw std::invalid_argument("quadrature_mixer: conversion loss must be >= 0 dB");
    }
    loss_gain_ = std::pow(10.0, -cfg.conversion_loss_db / 20.0);
    leakage_amplitude_ = std::pow(10.0, cfg.lo_leakage_dbc / 20.0);
    gain_alpha_ = std::pow(10.0, cfg.iq_gain_imbalance_db / 20.0);
    phase_beta_ = deg_to_rad(cfg.iq_phase_imbalance_deg);
}

cf64 quadrature_mixer::apply_iq_imbalance(cf64 x) const
{
    if (gain_alpha_ == 1.0 && phase_beta_ == 0.0) return x;
    // Standard imbalance model: y = mu x + nu conj(x).
    const cf64 mu = 0.5 * (1.0 + gain_alpha_ * std::polar(1.0, phase_beta_));
    const cf64 nu = 0.5 * (1.0 - gain_alpha_ * std::polar(1.0, phase_beta_));
    return mu * x + nu * std::conj(x);
}

cf64 quadrature_mixer::downconvert(cf64 rf, cf64 lo) const
{
    const cf64 mixed = loss_gain_ * rf * std::conj(lo);
    const cf64 leakage = leakage_amplitude_ * std::abs(lo) * cf64{1.0, 0.0};
    return apply_iq_imbalance(mixed + leakage);
}

cvec quadrature_mixer::downconvert(std::span<const cf64> rf, std::span<const cf64> lo) const
{
    if (rf.size() != lo.size()) {
        throw std::invalid_argument("quadrature_mixer: rf/lo length mismatch");
    }
    cvec out;
    out.reserve(rf.size());
    for (std::size_t i = 0; i < rf.size(); ++i) out.push_back(downconvert(rf[i], lo[i]));
    return out;
}

} // namespace mmtag::rf
