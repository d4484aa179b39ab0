// mmtag_bench's table: one row per reconstructed experiment, with the flags
// it reads besides --csv. This is the only list of experiments; `mmtag_bench
// help` prints it.
#include "experiments.hpp"

namespace mmtag::bench {
namespace {

const cli::command rows[] = {
    experiment("R1", "Van Atta retro-reflection pattern vs incidence angle", r01_van_atta_pattern),
    experiment("R2", "received constellations and EVM through the full chain", r02_constellation),
    experiment("R3", "uplink SNR vs distance (measured vs analytic budget)", r03_snr_vs_distance),
    experiment("R4", "BER vs distance for three uplink data rates", r04_ber_vs_distance,
               {"jobs", "seed", "json"}),
    experiment("R5", "BER vs Eb/N0 per modulation vs theory", r05_ber_vs_snr,
               {"jobs", "seed", "json"}),
    experiment("R6", "goodput vs distance: rate adaptation vs fixed rates", r06_rate_adaptation),
    experiment("R7", "link vs tag rotation: Van Atta vs flat plate", r07_orientation),
    experiment("R8", "canceller modes vs TX leakage level", r08_cancellation),
    experiment("R9", "slotted-ALOHA inventory cost vs population", r09_inventory),
    experiment("R10", "TDMA network goodput vs number of tags", r10_multitag_throughput,
               {"jobs", "seed", "json"}),
    experiment("R11", "tag power, energy per bit, and baselines", r11_energy),
    experiment("R12", "decoded BER vs Eb/N0: uncoded vs convolutional rates", r12_fec_gain),
    experiment("R13", "link quality vs switch rise/fall time at 5 Msym/s", r13_switch_speed),
    experiment("R14", "sensitivity to ADC bits, LO linewidth, and noise figure", r14_impairments),
    experiment("R15", "line-code trade: DC avoidance vs switching energy", r15_line_codes),
    experiment("R16", "self-coherent vs independent-LO receiver", r16_lo_architecture),
    experiment("R17", "link vs Rician K-factor at 6 m (+ ARQ recovery)", r17_fading),
    experiment("R18", "two-tag overlap and capture at the sample level", r18_collisions),
    experiment("R19", "frame loss under body blockage, with ARQ recovery", r19_blockage),
    experiment("R20", "sample-accurate inventory vs the MAC model", r20_sampled_inventory),
    experiment("R21", "goodput and recovery under injected faults, supervisor on/off",
               r21_fault_recovery, {"jobs", "json", "fault-seed"}),
    experiment("R22", "network chaos soak: degradation and re-admission vs faulted tags",
               r22_network_soak, {"jobs", "seed", "json", "rounds", "trials", "fault-seed"}),
    experiment("R23", "scale-out: goodput, fairness, re-admission vs tag count", r23_scale,
               {"jobs", "seed", "json", "aps", "frames", "trials", "fault-seed"}),
};

} // namespace

std::span<const cli::command> experiments()
{
    return rows;
}

} // namespace mmtag::bench
