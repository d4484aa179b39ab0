#include "mmtag/tag/termination_bank.hpp"

#include <stdexcept>

#include "mmtag/antenna/termination.hpp"

namespace mmtag::tag {

termination_bank::termination_bank(const config& cfg)
{
    if (cfg.stub_loss_db < 0.0) throw std::invalid_argument("termination_bank: negative loss");
    const std::size_t m = phy::constellation_size(cfg.scheme);

    gammas_.reserve(m + 1);
    for (std::size_t p = 0; p < m; ++p) {
        // Phase position p needs reflected phase 2 pi p / M. A shorted stub
        // reflects with Gamma = -exp(-2j beta l); solve for beta l and fold
        // the short's pi into the target.
        const double target_phase = two_pi * static_cast<double>(p) / static_cast<double>(m);
        const double beta_length = wrap_phase(pi - target_phase) / 2.0;
        gammas_.push_back(antenna::line_transform_lossy(antenna::gamma_short(), beta_length,
                                                        cfg.stub_loss_db));
    }
    gammas_.push_back(antenna::gamma_matched()); // absorptive state
}

std::size_t termination_bank::state_for_symbol(cf64 symbol) const
{
    if (std::abs(symbol) < 1e-12) return absorb_state();
    const std::size_t m = state_count();
    const double sector = two_pi / static_cast<double>(m);
    const auto position = static_cast<long long>(std::llround(std::arg(symbol) / sector));
    const long long wrapped = ((position % static_cast<long long>(m)) +
                               static_cast<long long>(m)) % static_cast<long long>(m);
    return static_cast<std::size_t>(wrapped);
}

} // namespace mmtag::tag
