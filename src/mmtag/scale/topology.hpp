// Spatial deployments for the scale-out simulator: seeded generators place
// APs on a grid and tags by one of three layouts (warehouse shelving grid,
// uniform Poisson disc, clustered hotspots), then precompute each tag's
// static link geometry — serving-AP SINR including inter-cell interference
// summed across co-channel APs. The DES engine perturbs these static
// figures per slot with fault impairments; it never recomputes geometry.
//
// Interference model (all APs radiate CW carrier continuously, as in the
// paper's FMCW-free CW architecture):
//   * carrier leak from other APs: one-way path loss into the serving AP's
//     receiver, knocked down by `ap_suppression_db`. Cross-AP carriers are
//     unmodulated CW exactly like the serving AP's own self-leak, so the
//     canceller notch plus DC blocking that strip the (far stronger)
//     self-leak strip them too; what survives is their phase-noise
//     sidebands, hence the ~90 dB default;
//   * cross-cell backscatter: every tag also reflects the *other* APs'
//     carriers toward the serving AP. The bistatic d1^2*d2^2 spreading law
//     equals the monostatic d^4 law at the geometric-mean distance
//     d_eq = sqrt(d1*d2), so the calibrated monostatic link budget is
//     reused as budget.at(sqrt(d1*d2)) — no second calibration needed. The
//     interfering burst is neither time- nor code-aligned with the serving
//     slot, so 20 dB of processing rejection (sync correlation, matched
//     filtering; `tag_suppression_db` in topology.cpp) applies on top.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/core/config.hpp"

namespace mmtag::scale {

enum class layout_kind {
    warehouse_grid, ///< tags on regular shelving rows with seeded jitter
    poisson_disc,   ///< uniform random positions over the floor
    clustered,      ///< hotspot clusters (pallets) with Gaussian spread
};

/// Parses "grid" / "poisson" / "clustered"; throws std::invalid_argument.
[[nodiscard]] layout_kind parse_layout(const std::string& text);
[[nodiscard]] const char* layout_name(layout_kind kind);

struct topology_config {
    layout_kind layout = layout_kind::warehouse_grid;
    std::size_t tag_count = 100;
    std::size_t ap_count = 1;
    /// Square deployment floor, side length in metres. APs are placed on a
    /// ceil(sqrt(ap_count)) grid at ceiling height over this floor.
    double floor_m = 12.0;
    /// Residual suppression applied to other APs' carrier leak (dB):
    /// canceller notch + DC blocking leave only phase-noise sidebands.
    double ap_suppression_db = 90.0;
    std::uint64_t seed = 0x5ca1ab1e;
};

struct placed_tag {
    std::uint32_t id = 0;
    double x_m = 0.0;
    double y_m = 0.0;
    /// Index of the serving AP (nearest by 3-D distance).
    std::size_t ap = 0;
    /// 3-D distance to the serving AP (m).
    double distance_m = 0.0;
    /// Static SINR at the serving AP with every co-channel AP transmitting
    /// and every tag of every other cell backscattering (dB).
    double sinr_db = 0.0;
};

struct placed_ap {
    double x_m = 0.0;
    double y_m = 0.0;
    double z_m = 0.0;
};

struct deployment {
    topology_config config;
    std::vector<placed_ap> aps;
    std::vector<placed_tag> tags; ///< ordered by tag id (0..n-1)
    /// Tag indices per serving AP (cell membership).
    std::vector<std::vector<std::size_t>> cells;
};

/// Generates a seeded deployment and computes per-tag static SINR from the
/// scenario's link budget. Same (config, scenario) in -> same deployment
/// out, bit for bit; placement draws use a counter-based scheme so tag k's
/// position is independent of how many tags precede it.
[[nodiscard]] deployment make_deployment(const topology_config& cfg,
                                         const core::system_config& scenario);

} // namespace mmtag::scale
