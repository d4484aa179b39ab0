#include "mmtag/tag/modulator.hpp"

#include <stdexcept>

namespace mmtag::tag {

namespace {

rf::rf_switch::config adjust_switch(rf::rf_switch::config cfg, std::size_t throws)
{
    cfg.throw_count = throws;
    return cfg;
}

} // namespace

backscatter_modulator::backscatter_modulator(const config& cfg)
    : cfg_(cfg),
      bank_([&] {
          termination_bank::config bank_cfg = cfg.bank;
          bank_cfg.scheme = cfg.frame.scheme; // bank must realize the frame's constellation
          return bank_cfg;
      }()),
      switch_(adjust_switch(cfg.rf_switch, bank_.throw_count())),
      samples_per_symbol_(0)
{
    if (cfg.sample_rate_hz <= 0.0 || cfg.symbol_rate_hz <= 0.0) {
        throw std::invalid_argument("backscatter_modulator: rates must be > 0");
    }
    const double sps = cfg.sample_rate_hz / cfg.symbol_rate_hz;
    if (sps < 2.0) {
        throw std::invalid_argument("backscatter_modulator: need >= 2 samples per symbol");
    }
    if (std::abs(sps - std::round(sps)) > 1e-6) {
        throw std::invalid_argument(
            "backscatter_modulator: sample rate must be an integer multiple of symbol rate");
    }
    samples_per_symbol_ = static_cast<std::size_t>(std::round(sps));
    if (cfg.symbol_rate_hz > switch_.max_symbol_rate_hz()) {
        throw simulation_error("backscatter_modulator: symbol rate exceeds switch capability");
    }
}

modulated_frame backscatter_modulator::modulate(std::span<const std::uint8_t> payload) const
{
    const cvec symbols = phy::build_frame(payload, cfg_.frame);
    return modulate_symbols(symbols);
}

modulated_frame backscatter_modulator::modulate_symbols(std::span<const cf64> symbols) const
{
    std::vector<std::size_t> states;
    states.reserve(symbols.size() + 2 * cfg_.guard_symbols);
    for (std::size_t i = 0; i < cfg_.guard_symbols; ++i) states.push_back(bank_.absorb_state());
    for (cf64 symbol : symbols) states.push_back(bank_.state_for_symbol(symbol));
    for (std::size_t i = 0; i < cfg_.guard_symbols; ++i) states.push_back(bank_.absorb_state());
    return realize(states);
}

modulated_frame backscatter_modulator::realize(const std::vector<std::size_t>& states) const
{
    modulated_frame frame;
    frame.states = states;
    frame.gamma = switch_.state_waveform(states, bank_.gammas(), samples_per_symbol_,
                                         cfg_.sample_rate_hz);
    frame.transitions = rf::rf_switch::count_transitions(states);
    frame.duration_s = static_cast<double>(frame.gamma.size()) / cfg_.sample_rate_hz;
    return frame;
}

} // namespace mmtag::tag
