// Glue between the AP link supervisor and the sample-accurate single-link
// simulator: offers framed traffic through the supervisor's plan
// (backoff, MCS fallback, watchdog reacquisition) while an attached fault
// injector perturbs the RF. The baseline variant runs the same traffic with
// supervision disabled — plain fixed-rate stop-and-wait ARQ — which is the
// "supervisor off" arm of the R21 experiment.
#pragma once

#include <cstddef>

#include "mmtag/ap/link_supervisor.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/fault/fault_injector.hpp"

namespace mmtag::core {

/// Runs `frames` supervised frame exchanges over `link`, with `faults`
/// injected per frame window (nullptr = fault-free). Reacquisition advances
/// the link clock by cfg.reacquisition_time_s and re-locks the LO (clearing
/// pending LO-step faults). The link's configured (modulation, FEC) pair is
/// the supervisor's nominal rate.
[[nodiscard]] ap::supervised_report run_supervised_link(link_simulator& link,
                                                        fault::fault_injector* faults,
                                                        const ap::supervisor_config& cfg,
                                                        std::size_t frames,
                                                        std::size_t payload_bytes);

/// Supervisor-off baseline: the same traffic and fault exposure, but plain
/// stop-and-wait ARQ (8 retries) at the fixed configured rate — no backoff,
/// no MCS fallback, no watchdog, so a persistent fault is a goodput cliff.
[[nodiscard]] ap::supervised_report run_baseline_link(link_simulator& link,
                                                      fault::fault_injector* faults,
                                                      std::size_t frames,
                                                      std::size_t payload_bytes);

} // namespace mmtag::core
