#include "mmtag/core/supervised_link.hpp"

#include <algorithm>
#include <vector>

#include "mmtag/core/link_simulator.hpp"
#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/mac/arq.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/runtime/thread_pool.hpp"

namespace mmtag::core {

namespace {

/// Link time one acquisition re-run costs (re-lock + canceller retrain).
constexpr double reacquisition_time_s = 0.6e-3;

/// Payload of offered frame `f`; every retransmission of it resends the same
/// bytes, and both kinds of arm offer the same sequence.
std::vector<std::uint8_t> frame_payload(const link_simulator& link, std::size_t payload_bytes,
                                        std::size_t f)
{
    return phy::random_bytes(payload_bytes, link.parameters().seed * 1'000'003 + 500'000 + f);
}

ap::supervised_report run_supervised_arm(link_simulator& link, fault::fault_injector* faults,
                                         std::size_t frames, std::size_t payload_bytes,
                                         obs::metrics_registry* metrics)
{
    std::vector<std::uint8_t> payload;
    ap::link_driver driver;
    driver.next_frame = [&](std::size_t f) { payload = frame_payload(link, payload_bytes, f); };
    driver.transmit = [&](const ap::rate_option& rate) {
        link.set_rate(rate);
        const auto result = link.run_frame(payload);
        return ap::attempt_result{result.delivered, result.rx.snr_db, result.elapsed_s};
    };
    // A probe is a short frame (minimal payload) at the requested robust
    // rate: a CRC pass proves the link is usable again without spending a
    // full data frame of airtime on a possibly dead channel.
    const std::vector<std::uint8_t> probe_payload =
        phy::random_bytes(4, link.parameters().seed * 1'000'003 + 499'999);
    driver.probe = [&](const ap::rate_option& rate) {
        link.set_rate(rate);
        const auto result = link.run_frame(probe_payload);
        return ap::attempt_result{result.delivered, result.rx.snr_db, result.elapsed_s};
    };
    driver.wait = [&](double wait_s) { link.advance_clock(wait_s); };
    driver.reacquire = [&] {
        link.advance_clock(reacquisition_time_s);
        if (faults != nullptr) faults->clear_lo_steps(link.clock_s());
    };
    driver.now = [&] { return link.clock_s(); };

    // The link's configured MCS, with its threshold when the ladder has it
    // (transmission only needs the pair).
    const auto& frame = link.parameters().modulator.frame;
    const ap::rate_option configured{{frame.scheme, frame.fec}};
    const auto& ladder = ap::rate_table();
    const auto rung = std::find(ladder.begin(), ladder.end(), configured);
    return ap::run_supervised(rung != ladder.end() ? *rung : configured, driver, frames,
                              static_cast<double>(payload_bytes) * 8.0, metrics);
}

/// Plain stop-and-wait ARQ at the configured rate: a persistent fault (an LO
/// step nobody re-locks) is a goodput cliff.
ap::supervised_report run_plain_arm(link_simulator& link, std::size_t frames,
                                    std::size_t payload_bytes)
{
    const double start_s = link.clock_s();
    std::vector<std::uint8_t> payload;
    const mac::arq_stats stats =
        mac::stop_and_wait(frames, [&](std::size_t f, std::size_t attempt) {
            if (attempt == 0) payload = frame_payload(link, payload_bytes, f);
            return link.run_frame(payload).delivered;
        });
    ap::supervised_report report;
    report.frames_offered = stats.frames_offered;
    report.frames_delivered = stats.frames_delivered;
    report.recovery.transmissions = stats.transmissions;
    report.delivered_bits = static_cast<double>(stats.frames_delivered) *
                            (static_cast<double>(payload_bytes) * 8.0);
    report.elapsed_s = link.clock_s() - start_s;
    report.recompute();
    return report;
}

} // namespace

std::vector<ap::supervised_report> run_recovery_arms(const system_config& link,
                                                     const std::vector<recovery_arm>& arms,
                                                     std::size_t frames,
                                                     std::size_t payload_bytes,
                                                     runtime::thread_pool& pool,
                                                     obs::metrics_registry* metrics)
{
    std::vector<ap::supervised_report> reports(arms.size());
    std::vector<obs::metrics_registry> arm_metrics(metrics != nullptr ? arms.size() : 0);
    pool.parallel_for(arms.size(), [&](std::size_t a) {
        const recovery_arm& arm = arms[a];
        obs::metrics_registry* registry = metrics != nullptr ? &arm_metrics[a] : nullptr;
        link_simulator sim(link);
        sim.attach_metrics(registry);
        std::optional<fault::fault_injector> injector;
        if (arm.faults) {
            injector.emplace(*arm.faults);
            injector->attach_metrics(registry);
            sim.attach_fault_injector(&*injector);
        }
        fault::fault_injector* faults = injector ? &*injector : nullptr;
        reports[a] = arm.supervised
                         ? run_supervised_arm(sim, faults, frames, payload_bytes, registry)
                         : run_plain_arm(sim, frames, payload_bytes);
    });
    for (const auto& registry : arm_metrics) metrics->merge(registry);
    return reports;
}

} // namespace mmtag::core
