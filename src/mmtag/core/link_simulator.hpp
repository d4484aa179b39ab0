// End-to-end single-link simulator: AP transmitter -> backscatter channel ->
// tag modulator -> channel -> AP receiver, sample-accurate. This is the
// harness every PHY-level experiment (R2-R8, R12-R14) drives.
#pragma once

#include <cstdint>
#include <span>

#include "mmtag/common.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/core/metrics.hpp"

namespace mmtag::fault {
class fault_injector;
}

namespace mmtag::obs {
class metrics_registry;
}

namespace mmtag::core {

class link_simulator {
public:
    explicit link_simulator(const system_config& cfg);

    [[nodiscard]] const system_config& parameters() const { return cfg_; }

    /// Attaches a fault injector consulted once per frame window (nullptr
    /// detaches). The injector is not owned and must outlive the simulator.
    void attach_fault_injector(fault::fault_injector* injector) { faults_ = injector; }

    /// Attaches an observability registry fed once per frame (frame/SNR/
    /// suppression counters and histograms, scoped timers). nullptr detaches;
    /// not owned, must outlive the simulator. With no registry attached the
    /// per-frame cost is a null check.
    void attach_metrics(obs::metrics_registry* metrics) { metrics_ = metrics; }

    /// Simulated link time: the sum of all capture windows plus any idle
    /// time advanced explicitly (supervisor backoff, reacquisition).
    [[nodiscard]] double clock_s() const { return clock_s_; }
    void advance_clock(double dt_s);

    /// Switches the live (modulation, FEC) pair — the hook rate adaptation
    /// and the link supervisor's MCS fallback drive mid-session.
    void set_rate(const phy::mcs& rate);

    struct frame_result {
        ap::reception rx;
        bool delivered = false;
        std::size_t bit_errors = 0;
        std::size_t bits = 0;
        double tag_energy_j = 0.0;
        double airtime_s = 0.0;
        double start_s = 0.0;      ///< link clock at the start of the window
        double elapsed_s = 0.0;    ///< full capture window duration
        bool fault_active = false; ///< an injected fault overlapped the window
    };

    /// Runs one complete frame exchange.
    [[nodiscard]] frame_result run_frame(std::span<const std::uint8_t> payload);

    /// Runs `frames` exchanges with fresh random payloads of `payload_bytes`
    /// and aggregates the metrics.
    [[nodiscard]] link_report run_trials(std::size_t frames, std::size_t payload_bytes);

private:
    system_config cfg_;
    channel::backscatter_channel channel_;
    tag::backscatter_modulator modulator_;
    tag::energy_model energy_;
    ap::ap_transmitter transmitter_;
    ap::ap_receiver receiver_;
    fault::fault_injector* faults_ = nullptr;
    obs::metrics_registry* metrics_ = nullptr;
    double clock_s_ = 0.0;
    std::uint64_t trial_ = 0;
};

} // namespace mmtag::core
