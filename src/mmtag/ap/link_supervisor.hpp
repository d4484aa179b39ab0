// AP-side link supervision: outage detection from CRC-failure streaks,
// robust-mode probes with capped exponential backoff, graceful MCS fallback
// through rate adaptation down to the most robust mode, and a session
// watchdog that re-runs acquisition when an outage persists — plus the
// recovery metrics (time-to-detect, time-to-recover, goodput retained) the
// R21 experiment reports.
//
// The state machine is pure (no RF dependencies); run_supervised() marries
// it to any link through a small callback bundle, so the same logic drives
// the sample-accurate core::link_simulator, the CLI, and synthetic links in
// unit tests.
#pragma once

#include <cstddef>
#include <functional>

#include "mmtag/ap/rate_adaptation.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::ap {

enum class supervisor_state {
    nominal, ///< delivering at the adapted rate
    alert,   ///< failures accumulating, outage not yet declared
    outage,  ///< declared outage: robust-mode probes with backoff
};

struct recovery_metrics {
    std::size_t outages = 0;        ///< outages declared
    std::size_t recoveries = 0;     ///< outages that ended in a delivery
    std::size_t reacquisitions = 0; ///< watchdog acquisition re-runs
    std::size_t transmissions = 0;  ///< data-frame attempts
    std::size_t probes = 0;         ///< short robust-mode probes during outages
    double detect_total_s = 0.0;    ///< first-failure -> declaration
    double detect_max_s = 0.0;
    double recover_total_s = 0.0;   ///< declaration -> next delivery
    double recover_max_s = 0.0;

    [[nodiscard]] double mean_detect_s() const;
    [[nodiscard]] double mean_recover_s() const;

    /// Trial-ordered fold: counters and totals add, maxima take the max.
    void merge(const recovery_metrics& other);
};

class link_supervisor {
public:
    /// Consecutive delivery failures before an outage is declared.
    static constexpr std::size_t outage_streak = 3;
    /// Attempts (data frames and probes) per offered frame before the frame
    /// is dropped.
    static constexpr std::size_t max_tries = 12;
    /// Outage backoff: probe k (1-based, counted from the declaration) waits
    /// min(initial_backoff_s * backoff_factor^(k-1), max_backoff_s).
    static constexpr double initial_backoff_s = 80e-6;
    static constexpr double backoff_factor = 2.0;
    static constexpr double max_backoff_s = 0.5e-3;
    /// Failed outage probes between acquisition re-runs (session watchdog).
    static constexpr std::size_t watchdog_probes = 5;

    /// `metrics`: optional observability registry fed attempt/outage/
    /// recovery counters. Not owned; nullptr disables. State-transition
    /// trace events go to the active trace session either way.
    explicit link_supervisor(rate_option nominal_rate,
                             obs::metrics_registry* metrics = nullptr);

    /// Idle wait before outage probe `probe` (1-based; 0 never waits).
    [[nodiscard]] static double backoff_delay_s(std::size_t probe);

    /// What to do for the next transmission attempt.
    struct plan {
        double wait_s = 0.0;    ///< idle backoff before transmitting
        bool reacquire = false; ///< re-run acquisition first
        /// Send a short robust-mode probe instead of the data frame: during
        /// an outage, blind full-frame retransmissions only burn airtime,
        /// so the supervisor tests the link cheaply and retransmits the
        /// data once a probe comes back.
        bool probe = false;
        rate_option rate{};     ///< MCS for the attempt
    };
    [[nodiscard]] plan next_attempt() const;

    /// Reports the outcome of the attempt that just finished at `now_s`.
    /// `snr_db` is only consulted on delivery (rate ramp-up). `was_probe`
    /// distinguishes short link probes from data-frame attempts in the
    /// metrics; the state machine treats both outcomes identically.
    void record(bool delivered, double snr_db, double now_s, bool was_probe = false);

    /// The driver performed the reacquisition the plan asked for; it ended
    /// at link time `now_s`.
    void note_reacquisition(double now_s);

    [[nodiscard]] supervisor_state state() const { return state_; }
    [[nodiscard]] const rate_option& current_rate() const { return rate_; }
    [[nodiscard]] const recovery_metrics& metrics() const { return metrics_; }

private:
    obs::metrics_registry* registry_;
    rate_adapter adapter_;
    rate_option nominal_rate_;
    rate_option rate_;
    supervisor_state state_ = supervisor_state::nominal;
    recovery_metrics metrics_;
    std::size_t fail_streak_ = 0;
    std::size_t probes_since_reacquire_ = 0;
    double first_fail_s_ = 0.0;
    double declared_s_ = 0.0;
};

/// Outcome of one transmission attempt on the underlying link.
struct attempt_result {
    bool delivered = false;
    double snr_db = -100.0;
    double elapsed_s = 0.0; ///< airtime the attempt consumed
};

/// Callback bundle the supervised loop drives a link through.
struct link_driver {
    /// Called once per offered frame, before its first attempt (e.g. to
    /// draw the payload that all retransmissions of the frame share).
    std::function<void(std::size_t frame_index)> next_frame;
    /// Transmit one frame attempt at `rate`; returns the outcome.
    std::function<attempt_result(const rate_option& rate)> transmit;
    /// Send a short link probe at `rate`; delivered == the link is back.
    /// Optional: when absent, probes fall back to full transmit attempts.
    std::function<attempt_result(const rate_option& rate)> probe;
    /// Idle the link for `wait_s` (backoff).
    std::function<void(double wait_s)> wait;
    /// Re-run acquisition (re-lock the LO, retrain the canceller).
    std::function<void()> reacquire;
    /// Current link time [s].
    std::function<double()> now;
};

struct supervised_report {
    recovery_metrics recovery;
    std::size_t frames_offered = 0;
    std::size_t frames_delivered = 0;
    double delivered_bits = 0.0; ///< payload bits of the delivered frames
    double elapsed_s = 0.0;      ///< link time the run occupied
    double goodput_bps = 0.0;    ///< derived by recompute()

    [[nodiscard]] double delivery_ratio() const;
    /// Fraction of a fault-free reference goodput retained.
    [[nodiscard]] double goodput_retained(double fault_free_goodput_bps) const;

    /// Derives goodput_bps from delivered_bits and elapsed_s, the additive
    /// fields; the one place goodput is computed.
    void recompute();

    /// Trial-ordered fold: counters, delivered bits and elapsed time add,
    /// then goodput is recomputed from the sums.
    void merge(const supervised_report& other);
};

/// Offers `frames` payloads of `payload_bits` each through a supervisor:
/// every frame is attempted up to link_supervisor::max_tries times following
/// the supervisor's backoff/fallback/watchdog plan, then dropped. `metrics`
/// is passed to the supervisor.
[[nodiscard]] supervised_report run_supervised(const rate_option& nominal_rate,
                                               const link_driver& driver,
                                               std::size_t frames, double payload_bits,
                                               obs::metrics_registry* metrics = nullptr);

} // namespace mmtag::ap
