// AP-side link supervision: outage detection from CRC-failure streaks,
// retransmission with capped exponential backoff (the mac::arq policy),
// graceful MCS fallback through rate adaptation down to the most robust
// mode, and a session watchdog that re-runs acquisition when an outage
// persists — plus the recovery metrics (time-to-detect, time-to-recover,
// goodput retained) the R21 experiment reports.
//
// The state machine is pure (no RF dependencies); run_supervised() marries
// it to any link through a small callback bundle, so the same logic drives
// the sample-accurate core::link_simulator, the CLI, and synthetic links in
// unit tests.
#pragma once

#include <cstddef>
#include <functional>

#include "mmtag/ap/rate_adaptation.hpp"
#include "mmtag/mac/arq.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::ap {

enum class supervisor_state {
    nominal, ///< delivering at the adapted rate
    alert,   ///< failures accumulating, outage not yet declared
    outage,  ///< declared outage: robust-mode probes with backoff
};

struct supervisor_config {
    /// Consecutive delivery failures before an outage is declared.
    std::size_t outage_streak = 3;
    /// Retry cap, attempt timing, and the capped-exponential backoff policy
    /// (initial_backoff_s > 0 enables backoff between failed attempts).
    mac::arq_config arq{.max_retries = 12,
                        .frame_time_s = 300e-6,
                        .ack_time_s = 20e-6,
                        .initial_backoff_s = 80e-6,
                        .backoff_factor = 2.0,
                        .max_backoff_s = 0.5e-3,
                        .ack_loss = 0.0};
    /// Failed outage probes between acquisition re-runs (session watchdog).
    std::size_t watchdog_probes = 5;
    /// Airtime cost of one acquisition re-run (re-lock + canceller retrain).
    double reacquisition_time_s = 0.6e-3;
    /// Fall back through the rate ladder during outages and ramp back via
    /// smoothed SNR; the adapted rate never exceeds the nominal rate.
    bool rate_fallback = true;
    /// Optional observability registry: attempt/outage/recovery counters and
    /// state-transition trace events. Not owned; nullptr disables.
    obs::metrics_registry* metrics = nullptr;
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
    link_supervisor(const supervisor_config& cfg, rate_option nominal_rate);

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

    /// The driver performed the reacquisition the plan asked for.
    void note_reacquisition();

    [[nodiscard]] supervisor_state state() const { return state_; }
    [[nodiscard]] const rate_option& current_rate() const { return rate_; }
    [[nodiscard]] const recovery_metrics& metrics() const { return metrics_; }

private:
    supervisor_config cfg_;
    mac::stop_and_wait_arq arq_;
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
    double elapsed_s = 0.0;
    double goodput_bps = 0.0;

    [[nodiscard]] double delivery_ratio() const;
    /// Fraction of a fault-free reference goodput retained.
    [[nodiscard]] double goodput_retained(double fault_free_goodput_bps) const;

    /// Trial-ordered fold: counters add, goodput recombines from the sums of
    /// delivered bits and elapsed airtime (an elapsed-weighted mean).
    void merge(const supervised_report& other);
};

/// Offers `frames` payloads of `payload_bits` each through the supervisor:
/// every frame is attempted up to cfg.arq.max_retries times following the
/// supervisor's backoff/fallback/watchdog plan, then dropped.
[[nodiscard]] supervised_report run_supervised(const supervisor_config& cfg,
                                               const rate_option& nominal_rate,
                                               const link_driver& driver,
                                               std::size_t frames,
                                               double payload_bits);

} // namespace mmtag::ap
