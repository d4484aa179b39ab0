// Fault-recovery runs over the sample-accurate single-link simulator. An
// arm offers framed traffic either through the AP link supervisor (outage
// detection, backoff, MCS fallback, watchdog reacquisition) or through plain
// stop-and-wait ARQ at the link's configured rate (mac::stop_and_wait: a
// fixed number of tries, no wait, no fallback, no reacquisition), while an
// optional fault schedule perturbs the RF. R21 and `mmtag_sim faults`
// compare the two kinds of arm under the same faults.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mmtag/ap/link_supervisor.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/fault/fault_schedule.hpp"

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::runtime {
class thread_pool;
}

namespace mmtag::core {

struct recovery_arm {
    /// Faults the arm's link sees; nullopt runs it fault-free, with no
    /// injector attached.
    std::optional<fault::fault_schedule> faults;
    /// true: the AP link supervisor carries the traffic; false: plain
    /// stop-and-wait ARQ.
    bool supervised = true;
};

/// Runs every arm as one task on `pool`, each on its own link_simulator
/// (configured by `link`) and fault_injector, offering `frames` payloads of
/// `payload_bytes`. The link's configured (modulation, FEC) pair is the
/// supervisor's nominal rate and plain ARQ's only rate. A supervised arm's
/// reacquisition advances the link clock and re-locks the LO (clearing
/// pending LO-step faults).
///
/// Reports come back in arm order. With `metrics` set, each arm records its
/// link, its injector and, on a supervised arm, its supervisor into a
/// registry of its own, and those fold into `*metrics` in arm order, so
/// reports and metrics are the same for any pool size.
[[nodiscard]] std::vector<ap::supervised_report> run_recovery_arms(
    const system_config& link, const std::vector<recovery_arm>& arms, std::size_t frames,
    std::size_t payload_bytes, runtime::thread_pool& pool,
    obs::metrics_registry* metrics = nullptr);

} // namespace mmtag::core
