#include "mmtag/ap/link_supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::ap {

namespace {

/// Rate-adapter threshold margin [dB].
constexpr double rate_margin_db = 2.0;

// State-transition trace marker with the link-time context an outage
// post-mortem needs.
void trace_transition(const char* name, double now_s)
{
    if (!obs::tracer::active()) return;
    char args[48];
    std::snprintf(args, sizeof args, "{\"link_s\": %.6f}", now_s);
    obs::trace_instant(name, "supervisor", args);
}

} // namespace

double recovery_metrics::mean_detect_s() const
{
    if (outages == 0) return 0.0;
    return detect_total_s / static_cast<double>(outages);
}

double recovery_metrics::mean_recover_s() const
{
    if (recoveries == 0) return 0.0;
    return recover_total_s / static_cast<double>(recoveries);
}

void recovery_metrics::merge(const recovery_metrics& other)
{
    outages += other.outages;
    recoveries += other.recoveries;
    reacquisitions += other.reacquisitions;
    transmissions += other.transmissions;
    probes += other.probes;
    detect_total_s += other.detect_total_s;
    detect_max_s = std::max(detect_max_s, other.detect_max_s);
    recover_total_s += other.recover_total_s;
    recover_max_s = std::max(recover_max_s, other.recover_max_s);
}

link_supervisor::link_supervisor(rate_option nominal_rate, obs::metrics_registry* metrics)
    : registry_(metrics),
      adapter_(rate_margin_db),
      nominal_rate_(nominal_rate),
      rate_(nominal_rate)
{
}

double link_supervisor::backoff_delay_s(std::size_t probe)
{
    if (probe == 0) return 0.0;
    // pow overflows to inf once the ladder outgrows double range; the
    // non-finite check keeps the wait at the cap for any probe index.
    const double grown =
        initial_backoff_s * std::pow(backoff_factor, static_cast<double>(probe - 1));
    if (!std::isfinite(grown) || grown > max_backoff_s) return max_backoff_s;
    return grown;
}

link_supervisor::plan link_supervisor::next_attempt() const
{
    plan p;
    p.rate = rate_;
    if (state_ == supervisor_state::outage) {
        p.rate = rate_table().front();
        // Probe instead of retransmitting: a full data frame sent into an
        // outage is airtime lost, so test the link with a short frame first.
        p.probe = true;
        // Backoff counts from the outage declaration: pre-outage retries go
        // out immediately (plain ARQ), so a short fade costs nothing extra.
        p.wait_s = backoff_delay_s(std::min<std::size_t>(fail_streak_ + 1 - outage_streak, 32));
        p.reacquire = probes_since_reacquire_ >= watchdog_probes;
    }
    return p;
}

void link_supervisor::record(bool delivered, double snr_db, double now_s, bool was_probe)
{
    if (was_probe) {
        ++metrics_.probes;
        if (registry_ != nullptr) registry_->get_counter("supervisor/probes").add();
    } else {
        ++metrics_.transmissions;
        if (registry_ != nullptr) {
            registry_->get_counter("supervisor/transmissions").add();
        }
    }
    if (delivered) {
        if (state_ == supervisor_state::outage) {
            ++metrics_.recoveries;
            const double recover = std::max(0.0, now_s - declared_s_);
            metrics_.recover_total_s += recover;
            metrics_.recover_max_s = std::max(metrics_.recover_max_s, recover);
            if (registry_ != nullptr) {
                registry_->get_counter("supervisor/recoveries").add();
                registry_->get_gauge("supervisor/recover_s").set(recover);
            }
            trace_transition("supervisor.recovered", now_s);
        }
        state_ = supervisor_state::nominal;
        fail_streak_ = 0;
        probes_since_reacquire_ = 0;
        rate_option adapted = adapter_.select_smoothed(snr_db);
        // Ramp back up, but never above the configured nominal rate.
        if (adapted.efficiency() > nominal_rate_.efficiency()) adapted = nominal_rate_;
        rate_ = adapted;
        return;
    }

    if (fail_streak_ == 0) first_fail_s_ = now_s;
    // Saturate instead of wrapping: a wrap would reset the streak to zero
    // and silently re-arm outage detection mid-outage.
    if (fail_streak_ != std::numeric_limits<std::size_t>::max()) ++fail_streak_;
    if (state_ == supervisor_state::outage) {
        ++probes_since_reacquire_;
    } else if (fail_streak_ >= outage_streak) {
        state_ = supervisor_state::outage;
        ++metrics_.outages;
        declared_s_ = now_s;
        const double detect = std::max(0.0, now_s - first_fail_s_);
        metrics_.detect_total_s += detect;
        metrics_.detect_max_s = std::max(metrics_.detect_max_s, detect);
        probes_since_reacquire_ = 0;
        if (registry_ != nullptr) {
            registry_->get_counter("supervisor/outages").add();
            registry_->get_gauge("supervisor/detect_s").set(detect);
        }
        trace_transition("supervisor.outage", now_s);
    } else {
        if (state_ != supervisor_state::alert) {
            if (registry_ != nullptr) {
                registry_->get_counter("supervisor/alerts").add();
            }
            trace_transition("supervisor.alert", now_s);
        }
        state_ = supervisor_state::alert;
    }
}

void link_supervisor::note_reacquisition(double now_s)
{
    ++metrics_.reacquisitions;
    probes_since_reacquire_ = 0;
    if (registry_ != nullptr) {
        registry_->get_counter("supervisor/reacquisitions").add();
    }
    trace_transition("supervisor.reacquire", now_s);
}

double supervised_report::delivery_ratio() const
{
    if (frames_offered == 0) return 0.0;
    return static_cast<double>(frames_delivered) / static_cast<double>(frames_offered);
}

double supervised_report::goodput_retained(double fault_free_goodput_bps) const
{
    if (fault_free_goodput_bps <= 0.0) return 0.0;
    return goodput_bps / fault_free_goodput_bps;
}

void supervised_report::recompute()
{
    goodput_bps = elapsed_s > 0.0 ? delivered_bits / elapsed_s : 0.0;
}

void supervised_report::merge(const supervised_report& other)
{
    recovery.merge(other.recovery);
    frames_offered += other.frames_offered;
    frames_delivered += other.frames_delivered;
    delivered_bits += other.delivered_bits;
    elapsed_s += other.elapsed_s;
    recompute();
}

supervised_report run_supervised(const rate_option& nominal_rate, const link_driver& driver,
                                 std::size_t frames, double payload_bits,
                                 obs::metrics_registry* metrics)
{
    if (!driver.transmit || !driver.now) {
        throw std::invalid_argument("run_supervised: transmit and now are required");
    }
    link_supervisor supervisor(nominal_rate, metrics);
    supervised_report report;
    const double start_s = driver.now();

    for (std::size_t f = 0; f < frames; ++f) {
        ++report.frames_offered;
        if (driver.next_frame) driver.next_frame(f);
        for (std::size_t attempt = 0; attempt < link_supervisor::max_tries; ++attempt) {
            const auto plan = supervisor.next_attempt();
            if (plan.reacquire && driver.reacquire) {
                driver.reacquire();
                supervisor.note_reacquisition(driver.now());
            }
            if (plan.wait_s > 0.0 && driver.wait) driver.wait(plan.wait_s);
            const bool probing = plan.probe && static_cast<bool>(driver.probe);
            const attempt_result result =
                probing ? driver.probe(plan.rate) : driver.transmit(plan.rate);
            supervisor.record(result.delivered, result.snr_db, driver.now(), probing);
            // A successful probe proves the link is back but carries no
            // payload; the data frame goes out on the next attempt at the
            // freshly adapted rate.
            if (!probing && result.delivered) {
                ++report.frames_delivered;
                break;
            }
        }
    }

    report.recovery = supervisor.metrics();
    report.delivered_bits = static_cast<double>(report.frames_delivered) * payload_bits;
    report.elapsed_s = driver.now() - start_s;
    report.recompute();
    return report;
}

} // namespace mmtag::ap
