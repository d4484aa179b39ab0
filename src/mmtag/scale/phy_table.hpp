// Calibrated PHY abstraction: per-MCS PER-vs-SINR curves measured once from
// the sample-accurate core::link_simulator, then consulted in O(log n) per
// packet by the discrete-event engine. This is the standard network-scale
// technique: the expensive PHY runs offline over a (MCS x SINR) grid; the
// scale simulator only interpolates.
//
// Calibration maps each SINR grid point to the distance at which the
// analytic link budget predicts that SNR (link_budget::max_range_m), runs
// `frames_per_point` sample-accurate frames there on the Monte-Carlo
// runtime, and records the measured PER. Curves are forced monotone
// non-increasing in SINR (pool-adjacent-violators), and the loader rejects
// any persisted table that is not.
//
// Disk cache: bench/out/phy_table_<fingerprint>.json with schema
// "mmtag.phy_table/1". The fingerprint hashes every parameter the curves
// depend on (scenario RF fields, SINR grid, frames, payload, seed, and the
// rate ladder itself); load_or_generate() loads on match and regenerates
// with a loud stderr line on miss or mismatch — a stale table silently
// reused would corrupt every scale result downstream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::scale {

struct phy_table_config {
    core::system_config scenario = core::fast_scenario();
    /// SINR grid [dB]: inclusive start/stop swept in `sinr_step_db` steps.
    double sinr_start_db = -2.0;
    double sinr_stop_db = 26.0;
    double sinr_step_db = 2.0;
    /// Sample-accurate frames per (MCS, SINR) grid point.
    std::size_t frames_per_point = 48;
    std::size_t payload_bytes = 16;
    std::uint64_t seed = 0xca11b8;

    [[nodiscard]] std::vector<double> sinr_grid() const;
};

class phy_table {
public:
    /// PER vs SINR of one MCS; curves()[i] belongs to rate_table()[i].
    struct curve {
        std::vector<double> sinr_db; ///< ascending grid
        std::vector<double> per;     ///< monotone non-increasing
        std::vector<std::uint64_t> frames; ///< observations per point
    };

    /// Interpolated PER for rate_table()[mcs_index] at `sinr_db`, clamped to
    /// the curve ends (below the grid the first point's PER applies, above
    /// the last point's).
    [[nodiscard]] double per(std::size_t mcs_index, double sinr_db) const;

    [[nodiscard]] const std::vector<curve>& curves() const { return curves_; }
    [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
    [[nodiscard]] const phy_table_config& parameters() const { return cfg_; }

    [[nodiscard]] runtime::json_value to_json() const;
    /// Parses a persisted table and validates it against the config the
    /// caller expects (the persisted params are a digest, not the full
    /// scenario). Throws simulation_error on schema mismatch, fingerprint
    /// or params mismatch, or non-monotone curves — the fail-loud half of
    /// the cache contract.
    [[nodiscard]] static phy_table from_json(const runtime::json_value& doc,
                                             const phy_table_config& cfg);

    /// Hash of everything the curves depend on (scenario, grid, seed, rate
    /// ladder); 16 lowercase hex digits.
    [[nodiscard]] static std::string fingerprint_of(const phy_table_config& cfg);

    /// Runs the calibration sweep on the Monte-Carlo runtime (`jobs` as in
    /// sweep_options; results are jobs-invariant).
    [[nodiscard]] static phy_table generate(const phy_table_config& cfg,
                                            std::size_t jobs);

    struct cache_result;
    /// Loads `<cache_dir>/phy_table_<fingerprint>.json` when present and
    /// valid; otherwise prints the loud "regenerating" line, generates, and
    /// persists. `cache_dir` defaults to bench/out.
    [[nodiscard]] static cache_result load_or_generate(const phy_table_config& cfg,
                                                       std::size_t jobs,
                                                       const std::string& cache_dir =
                                                           "bench/out");

private:
    phy_table_config cfg_;
    std::vector<curve> curves_;
    std::string fingerprint_;
};

struct phy_table::cache_result {
    phy_table table;
    bool cache_hit = false;
    std::string path; ///< file loaded from or written to
};

/// Forces `values` monotone non-increasing by pool-adjacent-violators
/// (least-squares isotonic fit); exposed for the calibration tests.
void enforce_non_increasing(std::vector<double>& values);

} // namespace mmtag::scale
