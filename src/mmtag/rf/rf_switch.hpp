// RF switch model (SPDT/SP4T class, e.g. ADRF5020-style parts). The switch
// is the tag's only fast active component: it selects which termination the
// antenna port sees. Finite rise/fall time smears symbol transitions and
// caps the achievable symbol rate (its power draw is in tag::energy_model).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mmtag/common.hpp"

namespace mmtag::rf {

class rf_switch {
public:
    struct config {
        std::size_t throw_count = 4;       ///< SPDT = 2, SP4T = 4
        double insertion_loss_db = 1.5;    ///< loss through the selected path
        double isolation_db = 40.0;        ///< leakage from unselected paths
        double rise_fall_time_s = 2e-9;    ///< 10-90% switching time
    };

    explicit rf_switch(const config& cfg);

    [[nodiscard]] const config& parameters() const { return cfg_; }

    /// Highest toggle rate the switch supports (one transition per symbol):
    /// the transition must fit inside ~half a symbol.
    [[nodiscard]] double max_symbol_rate_hz() const;

    /// Converts a per-symbol port-state sequence into a per-sample complex
    /// path coefficient, given each port's reflection coefficient. Transitions
    /// follow a raised-cosine ramp lasting `rise_fall_time_s` (quantized to
    /// samples at `sample_rate_hz`). Insertion loss scales all coefficients;
    /// isolation leaks a fraction of the mean of unselected ports.
    [[nodiscard]] cvec state_waveform(std::span<const std::size_t> states,
                                      std::span<const cf64> port_coefficients,
                                      std::size_t samples_per_symbol,
                                      double sample_rate_hz) const;

    /// Number of state changes in a symbol sequence.
    [[nodiscard]] static std::size_t count_transitions(std::span<const std::size_t> states);

private:
    config cfg_;
};

} // namespace mmtag::rf
