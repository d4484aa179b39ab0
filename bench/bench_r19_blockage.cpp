// R19 — Body blockage and ARQ recovery (extension).
// A person intermittently walks through the AP-tag path; the two-way link
// takes the shadow loss twice. Frames are launched continuously; each frame
// sees the blockage amplitude at its start (frames are ~100 us, shadow
// transitions are ~ms). Expected shape: PER tracks the blockage duty cycle
// once the two-way shadow exceeds the link margin; stop-and-wait ARQ restores
// delivery at the cost of duty-cycle-dependent retransmissions.
#include "experiments.hpp"
#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/channel/blockage.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/mac/arq.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/tag/modulator.hpp"

using namespace mmtag;

namespace {

/// One frame exchange with the tag path scaled by `amplitude` (two-way).
bool run_frame(const core::system_config& cfg, channel::backscatter_channel& chan,
               tag::backscatter_modulator& modulator, ap::ap_transmitter& tx,
               ap::ap_receiver& rx, double amplitude, std::uint64_t seed)
{
    const auto payload = phy::random_bytes(24, seed);
    auto frame = modulator.modulate(payload);
    const double two_way = amplitude * amplitude;
    for (auto& g : frame.gamma) g *= two_way;

    const std::size_t sps = modulator.samples_per_symbol();
    const std::size_t base = frame.gamma.size() + 8 * sps;
    const double training = cfg.receiver.canceller.training_fraction +
                            cfg.receiver.canceller.training_skip;
    const auto lead = static_cast<std::size_t>(2.0 * training * base) + sps;
    cvec gamma(lead, frame.gamma.front());
    gamma.insert(gamma.end(), frame.gamma.begin(), frame.gamma.end());

    const auto query = tx.generate(base + lead);
    const cvec antenna = chan.ap_received(query.rf, gamma);
    const auto rxed = rx.receive(antenna, query.lo);
    return rxed.frame_found && rxed.crc_ok && rxed.payload == payload;
}

} // namespace

cli::outcome bench::r19_blockage(const bench::bench_options& opts)
{
    const bool csv = opts.csv;

    auto cfg = core::fast_scenario();
    cfg.distance_m = 4.0; // ~21 dB of margin over QPSK-1/2

    bench::table out({"shadow_dB", "blocked_duty", "per", "arq_delivery",
                      "arq_tx_per_frame"},
                     csv);
    for (double loss_db : {6.0, 12.0, 20.0}) {
        for (double duty : {0.1, 0.3}) {
            channel::blockage_process::config blk;
            blk.sample_rate_hz = 1e4; // frame-scale trace
            blk.mean_blocked_s = 20e-3;
            blk.mean_clear_s = blk.mean_blocked_s * (1.0 - duty) / duty;
            blk.blockage_loss_db = loss_db;
            blk.transition_s = 2e-3;
            channel::blockage_process shadow(blk, 23);

            channel::backscatter_channel chan(core::make_channel_config(cfg));
            tag::backscatter_modulator modulator(cfg.modulator);
            ap::ap_transmitter tx(cfg.transmitter, 29);
            ap::ap_receiver rx(cfg.receiver, 31);

            constexpr std::size_t frames = 60;
            std::size_t delivered = 0;
            for (std::size_t f = 0; f < frames; ++f) {
                // Advance the shadow ~2 ms between frames (20 trace steps).
                double amplitude = 1.0;
                for (int k = 0; k < 20; ++k) amplitude = shadow.step();
                if (run_frame(cfg, chan, modulator, tx, rx, amplitude, 700 + f)) {
                    ++delivered;
                }
            }
            const double per = 1.0 - static_cast<double>(delivered) / frames;
            const auto arq_stats = mac::stop_and_wait(400, std::max(1.0 - per, 0.02), 37);
            out.add_row({bench::fmt("%.0f", loss_db), bench::fmt("%.1f", duty),
                         bench::fmt("%.2f", per),
                         bench::fmt("%.3f", arq_stats.delivery_ratio()),
                         bench::fmt("%.2f",
                                    static_cast<double>(arq_stats.transmissions) /
                                        static_cast<double>(arq_stats.frames_offered))});
        }
    }
    out.print();
    return {};
}
