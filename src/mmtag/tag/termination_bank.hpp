// The tag's termination bank: the set of loads the RF switch can connect to
// the Van Atta port. M shorted stubs whose round-trip electrical lengths step
// by 2 pi / M realize an M-PSK reflection constellation; a matched load gives
// the absorptive "quiet" state used while listening and between frames.
#pragma once

#include <cstddef>
#include <vector>

#include "mmtag/common.hpp"
#include "mmtag/phy/modulation.hpp"

namespace mmtag::tag {

class termination_bank {
public:
    struct config {
        phy::modulation scheme = phy::modulation::qpsk;
        double stub_loss_db = 0.5;            ///< one-way stub line loss
    };

    explicit termination_bank(const config& cfg);

    /// Number of data states (M of the PSK constellation).
    [[nodiscard]] std::size_t state_count() const { return gammas_.size() - 1; }

    /// Total switch throws needed: M data states + 1 absorptive state.
    [[nodiscard]] std::size_t throw_count() const { return gammas_.size(); }

    /// Index of the absorptive (matched-load) state.
    [[nodiscard]] std::size_t absorb_state() const { return gammas_.size() - 1; }

    /// Reflection coefficient of every state, ordered: data phases 0..M-1
    /// (phase position p at angle 2 pi p / M) then the absorptive state.
    [[nodiscard]] const cvec& gammas() const { return gammas_; }

    /// State index whose reflected phase best realizes a desired unit symbol.
    [[nodiscard]] std::size_t state_for_symbol(cf64 symbol) const;

private:
    cvec gammas_;
};

} // namespace mmtag::tag
