// Comparison baselines for the evaluation:
//  - an active mmWave radio power model (what the tag replaces),
//  - a phased-array tag power model (why tags cannot steer actively),
//  - a sub-6 GHz backscatter reference point.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mmtag::core {

/// Component-level power budget of a conventional active mmWave transmitter
/// (the component figures are constants in baselines.cpp).
struct active_radio_model {
    [[nodiscard]] double total_power_w() const;
    [[nodiscard]] double energy_per_bit(double data_rate_bps) const;
};

/// What a tag would burn if it steered its beam actively instead of using a
/// passive retro-reflector.
struct phased_array_tag_model {
    [[nodiscard]] double total_power_w() const;
};

/// Named literature reference points for the energy table (R11).
struct energy_reference {
    std::string name;
    double energy_per_bit_j;
    double data_rate_bps;
    std::string notes;
};

/// Reference points: the documented mmTag anchor (2.4 nJ/bit, via the
/// MilBack citation), sub-6 GHz WiFi backscatter, and active mmWave radios.
[[nodiscard]] std::vector<energy_reference> literature_energy_points();

} // namespace mmtag::core
