// Link-quality accounting: BER/PER counters, throughput, and the aggregate
// report structure benches print.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "mmtag/common.hpp"
#include "mmtag/dsp/estimators.hpp"

namespace mmtag::core {

/// Accumulates bit- and frame-level error statistics across trials.
class error_counter {
public:
    /// Compares a received byte payload against the transmitted one;
    /// `delivered` is the CRC verdict.
    void add_frame(std::span<const std::uint8_t> sent, std::span<const std::uint8_t> received,
                   bool delivered);

    /// Records a frame that produced no decodable output at all.
    void add_lost_frame(std::size_t payload_bytes);

    /// Records raw bit observations with no frame structure (symbol-level
    /// experiments such as the R5 AWGN sweep). frames()/per() are unaffected.
    void add_bits(std::size_t bits, std::size_t bit_errors);

    /// Folds another counter's observations into this one. Exact (integer
    /// sums), hence associative — the reduction the parallel sweep runner
    /// relies on for jobs-invariant results.
    void merge(const error_counter& other);

    [[nodiscard]] std::size_t frames() const { return frames_; }
    [[nodiscard]] std::size_t frames_delivered() const { return delivered_; }
    [[nodiscard]] std::size_t bits() const { return bits_; }
    [[nodiscard]] std::size_t bit_errors() const { return bit_errors_; }

    [[nodiscard]] double ber() const;
    [[nodiscard]] double per() const;

    /// Wilson-interval half width on the BER estimate (95%).
    [[nodiscard]] double ber_confidence() const;

private:
    std::size_t frames_ = 0;
    std::size_t delivered_ = 0;
    std::size_t bits_ = 0;
    std::size_t bit_errors_ = 0;
};

/// Aggregate of one measurement point (one distance/rate/... cell).
///
/// Carries both the derived figures benches print and the sufficient
/// statistics (additive sums) they derive from, so independently computed
/// reports can be combined exactly: merge() adds the sums and recomputes
/// the derived figures, and run_trials fills both, making a merged report
/// agree with sequential accumulation over the same frames.
struct link_report {
    double ber = 0.0;
    double per = 0.0;
    double mean_snr_db = 0.0;
    double mean_evm_db = 0.0;
    double goodput_bps = 0.0;
    double tag_energy_per_bit_j = 0.0;
    std::size_t frames = 0;

    // Sufficient statistics. `bits` counts offered payload bits (including
    // lost frames); snr/evm sums only cover frames the receiver found.
    std::size_t frames_delivered = 0;
    std::size_t bits = 0;
    std::size_t bit_errors = 0;
    std::size_t snr_samples = 0;
    double snr_sum_db = 0.0;
    std::size_t evm_samples = 0;
    double evm_sum_db = 0.0;
    double airtime_s = 0.0;
    std::size_t delivered_bits = 0;
    double tag_energy_j = 0.0;

    /// Adds `other`'s sufficient statistics and recomputes the derived
    /// figures. Integer fields combine exactly; double sums are ordinary
    /// floating-point addition, associative to rounding.
    void merge(const link_report& other);

    /// Recomputes ber/per/means/goodput/energy-per-bit from the sums.
    void recompute();

    /// Wilson-interval half width on the BER estimate (95%).
    [[nodiscard]] double ber_confidence() const;
};

/// PER implied by an independent-bit-error channel: 1 - (1-ber)^bits.
[[nodiscard]] double per_from_ber(double ber, std::size_t frame_bits);

/// Pretty-prints a BER as "3.2e-05" or "<1/N" when zero errors were seen.
[[nodiscard]] std::string format_ber(double ber, std::size_t bits_observed);

} // namespace mmtag::core
