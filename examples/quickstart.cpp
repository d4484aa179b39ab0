// Quickstart: one tag, one message, end to end.
//
// Builds the default scenario (24 GHz ISM, 27 dBm AP, 8-element Van Atta
// tag, QPSK R=1/2 at 5 Msym/s), backscatters a string from the tag to the
// AP, and prints what the receiver saw.
//
//   $ ./quickstart [distance_m]
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"

int main(int argc, char** argv)
{
    using namespace mmtag;

    double distance = 2.0;
    if (argc > 1) distance = std::atof(argv[1]);
    if (distance <= 0.0) {
        std::fprintf(stderr, "usage: %s [distance_m > 0]\n", argv[0]);
        return 1;
    }

    auto cfg = core::default_scenario();
    cfg.distance_m = distance;

    std::printf("mmtag quickstart: tag at %.1f m, %.1f Msym/s %s/%s uplink\n", distance,
                cfg.symbol_rate_hz / 1e6, phy::modulation_name(cfg.modulator.frame.scheme).c_str(),
                phy::fec_mode_name(cfg.modulator.frame.fec));

    // What the physics says before we simulate a single sample.
    const core::link_budget budget(cfg);
    const auto entry = budget.at(distance);
    std::printf("  link budget: %.1f dBm at the tag, %.1f dBm back at the AP, "
                "predicted SNR %.1f dB\n",
                entry.incident_at_tag_dbm, entry.received_at_ap_dbm, entry.snr_db);

    // The actual exchange.
    core::link_simulator sim(cfg);
    const std::string message = "hello from a 21 mW tag at 24 GHz!";
    const std::vector<std::uint8_t> payload{message.begin(), message.end()};
    const auto result = sim.run_frame(payload);

    if (!result.rx.frame_found) {
        std::printf("  no frame detected -- out of range for this configuration.\n");
        return 2;
    }
    std::printf("  sync quality %.1f, measured SNR %.1f dB, EVM %.1f dB\n",
                result.rx.sync_quality, result.rx.snr_db, result.rx.evm_db);
    const std::string received{result.rx.payload.begin(), result.rx.payload.end()};
    std::printf("  CRC %s, payload: \"%s\"\n", result.rx.crc_ok ? "ok" : "FAILED",
                received.c_str());
    std::printf("  tag spent %.2f uJ (%.2f nJ/bit) on this frame\n",
                result.tag_energy_j * 1e6,
                result.tag_energy_j / static_cast<double>(result.bits) * 1e9);
    return result.rx.crc_ok ? 0 : 3;
}
