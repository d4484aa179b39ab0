// Backscatter modulator: turns a payload into the tag's per-sample reflection
// coefficient waveform by driving the RF switch across the termination bank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "mmtag/common.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/rf/rf_switch.hpp"
#include "mmtag/tag/termination_bank.hpp"

namespace mmtag::tag {

/// A modulated frame, ready to be handed to the channel.
struct modulated_frame {
    cvec gamma;                    ///< per-sample reflection coefficient
    std::size_t transitions = 0;   ///< switch state changes
    double duration_s = 0.0;
    std::vector<std::size_t> states; ///< per-symbol switch states (diagnostics)
};

class backscatter_modulator {
public:
    struct config {
        phy::frame_config frame{};
        termination_bank::config bank{};
        rf::rf_switch::config rf_switch{};
        double sample_rate_hz = 2e9;
        double symbol_rate_hz = 5e6;
        /// Absorptive guard symbols emitted before and after each frame.
        std::size_t guard_symbols = 8;
    };

    explicit backscatter_modulator(const config& cfg);

    [[nodiscard]] const config& parameters() const { return cfg_; }
    [[nodiscard]] std::size_t samples_per_symbol() const { return samples_per_symbol_; }

    /// Modulates one payload into a reflection waveform.
    [[nodiscard]] modulated_frame modulate(std::span<const std::uint8_t> payload) const;

    /// Modulates an arbitrary symbol stream (used by MAC-layer inventory
    /// responses that bypass full framing).
    [[nodiscard]] modulated_frame modulate_symbols(std::span<const cf64> symbols) const;

private:
    [[nodiscard]] modulated_frame realize(const std::vector<std::size_t>& states) const;

    config cfg_;
    termination_bank bank_;
    rf::rf_switch switch_;
    std::size_t samples_per_symbol_;
};

} // namespace mmtag::tag
