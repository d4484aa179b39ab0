#include "mmtag/core/supervised_link.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/phy/bitio.hpp"

namespace mmtag::core {

namespace {

ap::supervised_report run(link_simulator& link, fault::fault_injector* faults,
                          const ap::supervisor_config& cfg, std::size_t frames,
                          std::size_t payload_bytes)
{
    link.attach_fault_injector(faults);
    // One registry observes the whole supervised session: the supervisor
    // feeds it through cfg.metrics, so route the link and injector there
    // too. A null cfg.metrics leaves any registry the caller attached alone.
    if (cfg.metrics != nullptr) {
        link.attach_metrics(cfg.metrics);
        if (faults != nullptr) faults->attach_metrics(cfg.metrics);
    }

    std::vector<std::uint8_t> payload;
    ap::link_driver driver;
    driver.next_frame = [&](std::size_t f) {
        payload = phy::random_bytes(payload_bytes,
                                    link.parameters().seed * 1'000'003 + 500'000 + f);
    };
    driver.transmit = [&](const ap::rate_option& rate) {
        link.set_rate(rate);
        const auto result = link.run_frame(payload);
        return ap::attempt_result{result.delivered, result.rx.snr_db,
                                  result.elapsed_s};
    };
    // A probe is a short frame (minimal payload) at the requested robust
    // rate: a CRC pass proves the link is usable again without spending a
    // full data frame of airtime on a possibly dead channel.
    const std::vector<std::uint8_t> probe_payload =
        phy::random_bytes(4, link.parameters().seed * 1'000'003 + 499'999);
    driver.probe = [&, probe_payload](const ap::rate_option& rate) {
        link.set_rate(rate);
        const auto result = link.run_frame(probe_payload);
        return ap::attempt_result{result.delivered, result.rx.snr_db,
                                  result.elapsed_s};
    };
    driver.wait = [&](double wait_s) { link.advance_clock(wait_s); };
    driver.reacquire = [&] {
        link.advance_clock(cfg.reacquisition_time_s);
        if (faults != nullptr) faults->clear_lo_steps(link.clock_s());
    };
    driver.now = [&] { return link.clock_s(); };

    // The link's configured MCS, with its threshold when the ladder has it
    // (transmission only needs the pair).
    const auto& frame = link.parameters().modulator.frame;
    const ap::rate_option configured{{frame.scheme, frame.fec}};
    const auto& ladder = ap::rate_table();
    const auto rung = std::find(ladder.begin(), ladder.end(), configured);
    return ap::run_supervised(cfg, rung != ladder.end() ? *rung : configured, driver, frames,
                              static_cast<double>(payload_bytes) * 8.0);
}

} // namespace

ap::supervised_report run_supervised_link(link_simulator& link,
                                          fault::fault_injector* faults,
                                          const ap::supervisor_config& cfg,
                                          std::size_t frames, std::size_t payload_bytes)
{
    return run(link, faults, cfg, frames, payload_bytes);
}

ap::supervised_report run_baseline_link(link_simulator& link,
                                        fault::fault_injector* faults,
                                        std::size_t max_retries, std::size_t frames,
                                        std::size_t payload_bytes)
{
    // Supervision disabled: the streak threshold is unreachable, so no
    // outage is ever declared, no backoff is inserted, the rate never
    // falls back, and the watchdog never reacquires.
    ap::supervisor_config cfg;
    cfg.arq.max_retries = max_retries;
    cfg.arq.initial_backoff_s = 0.0;
    cfg.outage_streak = std::numeric_limits<std::size_t>::max();
    cfg.rate_fallback = false;
    return run(link, faults, cfg, frames, payload_bytes);
}

} // namespace mmtag::core
