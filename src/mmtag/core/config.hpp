// System-level configuration: one struct that describes a whole mmtag
// deployment (AP, tag hardware, channel, PHY), plus named presets used by
// examples, tests, and benches.
#pragma once

#include <cstdint>

#include "mmtag/common.hpp"
#include "mmtag/antenna/van_atta.hpp"
#include "mmtag/ap/canceller.hpp"
#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/tag/modulator.hpp"

namespace mmtag::core {

/// Tag reflector construction (the R1/R7 ablation axis).
enum class reflector_kind {
    van_atta,   ///< retro-directive (the mmtag design)
    flat_plate, ///< same aperture, no pairing (baseline)
};

struct system_config {
    // Geometry.
    double distance_m = 2.0;
    double tag_incidence_rad = 0.0;

    // Waveform.
    double sample_rate_hz = 250e6;
    double symbol_rate_hz = 5e6;

    // AP.
    ap::ap_transmitter::config transmitter{};
    ap::ap_receiver::config receiver{};
    double ap_tx_gain_dbi = 20.0;
    double ap_rx_gain_dbi = 20.0;

    // Tag.
    reflector_kind reflector = reflector_kind::van_atta;
    antenna::van_atta_array::config van_atta{};
    tag::backscatter_modulator::config modulator{};

    // Environment.
    double tx_leakage_db = -35.0;
    std::vector<channel::scatterer> clutter{};
    double rain_rate_mm_per_hr = 0.0;
    /// Unmodeled tag-path losses (pointing, polarization, processing).
    /// 25 dB calibrates the idealized budget to bench-like maximum ranges.
    double implementation_loss_db = 25.0;
    /// Rician K of tag-path block fading [dB]; >= 80 means pure LOS.
    double rician_k_db = 100.0;

    std::uint64_t seed = 1;
};

/// Baseline single-link scenario: 24 GHz ISM, 27 dBm AP, 8-element Van Atta
/// tag, QPSK R=1/2 at 5 Msym/s, a typical indoor clutter set. All rates and
/// sample rates are internally consistent.
[[nodiscard]] system_config default_scenario();

/// default_scenario on a 50 MS/s grid (10 samples/symbol): identical RF
/// parameters, ~25x faster to simulate. The configuration used by the
/// benches, the CLI tool, and the integration tests.
[[nodiscard]] system_config fast_scenario();

/// Dense-clutter aisle with a bigger (16-element) tag and the robust rate —
/// the warehouse-inventory preset.
[[nodiscard]] system_config warehouse_scenario();

/// High-rate preset for body-worn streaming: 12.5 Msym/s (4 samples/symbol
/// on the fast grid), 8-PSK R=2/3, light clutter.
[[nodiscard]] system_config wearable_scenario();

/// Derives the channel configuration implied by a system_config (evaluating
/// the tag's reflector model at the configured orientation).
[[nodiscard]] channel::backscatter_channel::config make_channel_config(const system_config& cfg);

/// Validates cross-field consistency (sample rates, symbol rates, bandwidth);
/// throws std::invalid_argument with a precise message on violation.
void validate(const system_config& cfg);

} // namespace mmtag::core
