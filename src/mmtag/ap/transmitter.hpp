// AP transmitter: generates the CW query carrier through the PA. The same
// LO samples are exposed so the receiver can downconvert self-coherently —
// the design choice that makes unmodulated interference land at DC.
#pragma once

#include <cstddef>

#include "mmtag/common.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/oscillator.hpp"

namespace mmtag::ap {

class ap_transmitter {
public:
    struct config {
        double tx_power_dbm = 27.0;       ///< radiated power after the PA
        double sample_rate_hz = 2e9;
        double lo_linewidth_hz = 1e3;     ///< synthesizer phase-noise linewidth
        rf::power_amplifier::config pa{};
    };

    ap_transmitter(const config& cfg, std::uint64_t seed);

    [[nodiscard]] const config& parameters() const { return cfg_; }
    [[nodiscard]] double tx_power_w() const { return tx_power_w_; }

    struct query {
        cvec rf; ///< transmitted complex envelope (volts, 1-ohm reference)
        cvec lo; ///< unit-amplitude LO stream for self-coherent RX
    };

    /// Generates `count` samples of CW query.
    [[nodiscard]] query generate(std::size_t count);

private:
    config cfg_;
    rf::oscillator lo_;
    rf::power_amplifier pa_;
    double tx_power_w_;
    double drive_amplitude_;
};

} // namespace mmtag::ap
