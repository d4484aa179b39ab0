// Tag power/energy accounting. The tag has no mmWave actives; its budget is
// the switch driver (dynamic CV^2 f — dominant while transmitting), the
// switch and envelope-detector bias, and the MCU. The component powers are
// constants in energy_model.cpp.
#pragma once

#include <cstddef>

#include "mmtag/common.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/tag/modulator.hpp"

namespace mmtag::tag {

class energy_model {
public:
    /// Average power while asleep (RTC only).
    [[nodiscard]] double sleep_power_w() const;

    /// Average power while listening for a query (detector + MCU).
    [[nodiscard]] double listen_power_w() const;

    /// Average power while backscattering at `symbol_rate_hz` with
    /// `transitions_per_symbol` average switch activity.
    [[nodiscard]] double transmit_power_w(double symbol_rate_hz,
                                          double transitions_per_symbol) const;

    /// Energy for one concrete modulated frame.
    [[nodiscard]] double frame_energy_j(const modulated_frame& frame) const;

    /// Energy per information bit [J/bit] at a PHY configuration and symbol
    /// rate; random data assumed (expected transition density of an M-ary
    /// memoryless symbol stream: (M-1)/M).
    [[nodiscard]] double energy_per_bit(const phy::frame_config& frame,
                                        double symbol_rate_hz) const;
};

} // namespace mmtag::tag
