// mmtag_bench: `mmtag_bench ID [--flags]` runs one reconstructed experiment;
// `mmtag_bench help` lists them. This table is the only list of experiments.
#include "experiments.hpp"

using namespace mmtag::bench;

const experiment experiments[] = {
    {"R1", "Van Atta retro-reflection pattern vs incidence angle", {}, r01_van_atta_pattern},
    {"R2", "received constellations and EVM through the full chain", {}, r02_constellation},
    {"R3", "uplink SNR vs distance (measured vs analytic budget)", {}, r03_snr_vs_distance},
    {"R4", "BER vs distance for three uplink data rates", {"jobs", "seed", "json"},
     r04_ber_vs_distance},
    {"R5", "BER vs Eb/N0 per modulation vs theory", {"jobs", "seed", "json"}, r05_ber_vs_snr},
    {"R6", "goodput vs distance: rate adaptation vs fixed rates", {}, r06_rate_adaptation},
    {"R7", "link vs tag rotation: Van Atta vs flat plate", {}, r07_orientation},
    {"R8", "canceller modes vs TX leakage level", {}, r08_cancellation},
    {"R9", "slotted-ALOHA inventory cost vs population", {}, r09_inventory},
    {"R10", "TDMA network goodput vs number of tags", {"jobs", "seed", "json"},
     r10_multitag_throughput},
    {"R11", "tag power, energy per bit, and baselines", {}, r11_energy},
    {"R12", "decoded BER vs Eb/N0: uncoded vs convolutional rates", {}, r12_fec_gain},
    {"R13", "link quality vs switch rise/fall time at 5 Msym/s", {}, r13_switch_speed},
    {"R14", "sensitivity to ADC bits, LO linewidth, and noise figure", {}, r14_impairments},
    {"R15", "line-code trade: DC avoidance vs switching energy", {}, r15_line_codes},
    {"R16", "self-coherent vs independent-LO receiver", {}, r16_lo_architecture},
    {"R17", "link vs Rician K-factor at 6 m (+ ARQ recovery)", {}, r17_fading},
    {"R18", "two-tag overlap and capture at the sample level", {}, r18_collisions},
    {"R19", "frame loss under body blockage, with ARQ recovery", {}, r19_blockage},
    {"R20", "sample-accurate inventory vs the MAC model", {}, r20_sampled_inventory},
    {"R21", "goodput and recovery under injected faults, supervisor on/off",
     {"jobs", "json", "fault-seed"}, r21_fault_recovery},
    {"R22", "network chaos soak: degradation and re-admission vs faulted tags",
     {"jobs", "seed", "json", "rounds", "trials", "fault-seed"}, r22_network_soak},
    {"R23", "scale-out: goodput, fairness, re-admission vs tag count",
     {"jobs", "seed", "json", "aps", "frames", "trials", "fault-seed"}, r23_scale},
};

int main(int argc, char** argv)
{
    return run(argc, argv, experiments);
}
