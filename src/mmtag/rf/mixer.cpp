#include "mmtag/rf/mixer.hpp"

#include <stdexcept>

namespace mmtag::rf {

quadrature_mixer::quadrature_mixer(const config& cfg)
{
    if (cfg.conversion_loss_db < 0.0) {
        throw std::invalid_argument("quadrature_mixer: conversion loss must be >= 0 dB");
    }
    loss_gain_ = std::pow(10.0, -cfg.conversion_loss_db / 20.0);
    leakage_amplitude_ = std::pow(10.0, cfg.lo_leakage_dbc / 20.0);
}

cf64 quadrature_mixer::downconvert(cf64 rf, cf64 lo) const
{
    const cf64 mixed = loss_gain_ * rf * std::conj(lo);
    const cf64 leakage = leakage_amplitude_ * std::abs(lo) * cf64{1.0, 0.0};
    return mixed + leakage;
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
