// DES mirror: re-runs scale::run_scale_trial through the library's public
// pieces — scale::event_queue, fault::fault_injector::at,
// net::network_supervisor, mac::tdma_scheduler::interleave_shares and
// scale::phy_table::per — timing each one. It must reproduce the trial's
// event_log_hash and slot counters exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mmtag/scale/des_engine.hpp"

namespace perfbench {

struct des_layer_totals {
    double queue_s = 0.0;       ///< event_queue push + pop
    double fault_s = 0.0;       ///< shared + per-tag fault_injector::at
    double plan_s = 0.0;        ///< network_supervisor::plan_round
    double interleave_s = 0.0;  ///< tdma_scheduler::interleave_shares
    double record_s = 0.0;      ///< record_data / record_probe
    double phy_draw_s = 0.0;    ///< SINR mapping + phy_table::per + draw
    double event_log_s = 0.0;   ///< format the event line + FNV-1a
    std::uint64_t allocations = 0; ///< inside the event loop
    std::uint64_t peak_queue_depth = 0;
    std::uint64_t transitions = 0;
};

struct des_mirror_result {
    std::uint64_t event_log_hash = 0;
    std::uint64_t events = 0;
    std::uint64_t rounds = 0;
    std::uint64_t data_slots = 0;
    std::uint64_t probe_slots = 0;
    std::uint64_t delivered = 0;
    des_layer_totals layers;
};

[[nodiscard]] des_mirror_result mirror_scale_trial(const mmtag::scale::scale_config& cfg,
                                                   const mmtag::scale::deployment& topo,
                                                   const mmtag::scale::phy_table& table,
                                                   std::size_t trial);

} // namespace perfbench
