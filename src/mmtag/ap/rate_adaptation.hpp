// SNR-driven rate adaptation: choose the densest (modulation, FEC) pair whose
// decoding threshold clears the measured SNR with margin.
#pragma once

#include <span>
#include <vector>

#include "mmtag/common.hpp"
#include "mmtag/phy/frame.hpp"

namespace mmtag::ap {

/// One rung of the rate ladder: an MCS plus its decoding threshold.
/// Comparison (phy::mcs's ==) looks at the MCS only.
struct rate_option : phy::mcs {
    /// Minimum per-symbol SNR [dB] for quasi-error-free operation
    /// (BER <~ 1e-5 after decoding).
    double required_snr_db = 0.0;
};

/// The mmtag rate ladder, ordered by increasing spectral efficiency.
/// Thresholds derive from theoretical M-PSK BER at 1e-5 minus measured
/// convolutional coding gain.
[[nodiscard]] const std::vector<rate_option>& rate_table();

/// Index into rate_table() of the densest option decodable at `snr_db` with
/// `margin_db` to spare; 0 (the most robust) when none is.
[[nodiscard]] std::size_t rate_index(double snr_db, double margin_db);

class rate_adapter {
public:
    /// `margin_db` backs every threshold off for channel estimation error.
    explicit rate_adapter(double margin_db = 2.0);

    /// Densest option decodable at `snr_db`; the most robust option when
    /// even the bottom of the ladder is out of reach (caller may still fail).
    [[nodiscard]] rate_option select(double snr_db) const;

    /// Smoothed selection: exponential SNR averaging across calls to avoid
    /// flapping on noisy estimates.
    [[nodiscard]] rate_option select_smoothed(double snr_db);

    [[nodiscard]] double smoothed_snr_db() const { return smoothed_snr_db_; }

private:
    double margin_db_;
    double smoothed_snr_db_ = 0.0;
    bool primed_ = false;
};

} // namespace mmtag::ap
