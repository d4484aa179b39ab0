// Link mirror: re-runs core::link_simulator::run_frame (no faults, no
// metrics attached) as a sequence of calls into each module's public
// functions, timing every stage and counting its heap allocations. The
// library is not modified; the mirror owns twins of the simulator's
// components, constructed with the same seeds, so for the same
// configuration and payloads it must decode exactly what the simulator
// decodes (check_link_fidelity enforces that).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "mmtag/ap/canceller.hpp"
#include "mmtag/ap/receiver.hpp"
#include "mmtag/ap/transmitter.hpp"
#include "mmtag/channel/backscatter_channel.hpp"
#include "mmtag/core/config.hpp"
#include "mmtag/rf/adc.hpp"
#include "mmtag/rf/amplifier.hpp"
#include "mmtag/rf/mixer.hpp"
#include "mmtag/rf/noise.hpp"
#include "mmtag/tag/modulator.hpp"

namespace perfbench {

/// Stages of one frame, in pipeline order.
inline constexpr std::array<const char*, 14> link_stage_names = {
    "tag.modulate", "ap.tx",      "channel.ap_received", "rf.noise",
    "rf.lna",       "rf.mixer",   "rf.adc",              "ap.canceller",
    "dsp.timing",   "phy.sync",   "phy.demap",           "fec.deinterleave",
    "fec.viterbi",  "fec.crc",
};

struct stage_totals {
    double seconds = 0.0;
    std::uint64_t allocations = 0;
};

/// One mirrored frame. The intermediates are what the fidelity gate feeds
/// to the library's coarser public entry points.
struct mirror_frame {
    mmtag::ap::reception rx;
    bool delivered = false;
    mmtag::cvec antenna;  ///< receive-antenna samples (channel output)
    mmtag::cvec lo;       ///< transmitter LO stream
    mmtag::cvec cleaned;  ///< canceller output
    std::size_t frame_start = 0; ///< header start in rx.symbols (0 = no sync)
};

class link_mirror {
public:
    explicit link_mirror(const mmtag::core::system_config& cfg);

    [[nodiscard]] mirror_frame run_frame(std::span<const std::uint8_t> payload);

    /// Zeroes the stage totals and frame counters (after a warm-up frame).
    void reset_totals();

    [[nodiscard]] const std::array<stage_totals, link_stage_names.size()>& stages() const
    {
        return stages_;
    }
    [[nodiscard]] std::uint64_t frames() const { return frames_; }
    [[nodiscard]] std::uint64_t samples() const { return samples_; }
    /// Information bits (payload + CRC-32) the Viterbi decoder produced.
    [[nodiscard]] std::uint64_t viterbi_bits() const { return viterbi_bits_; }

private:
    mmtag::core::system_config cfg_;
    mmtag::channel::backscatter_channel channel_;
    mmtag::tag::backscatter_modulator modulator_;
    mmtag::ap::ap_transmitter transmitter_;
    // The receiver's front-end components, seeded as ap_receiver seeds them.
    mmtag::rf::awgn_source antenna_noise_;
    mmtag::rf::lna lna_;
    mmtag::rf::quadrature_mixer mixer_;
    mmtag::rf::adc adc_;
    mmtag::ap::self_interference_canceller canceller_;

    std::array<stage_totals, link_stage_names.size()> stages_{};
    std::uint64_t trial_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t viterbi_bits_ = 0;
};

/// Runs `frames` frames of `payload_bytes` through core::link_simulator and
/// through a link_mirror built from the same configuration, in lockstep.
/// Returns an empty string when every frame decodes byte-identically with
/// the same delivered flag and SNR estimate; otherwise a message naming the
/// first frame that diverged and the stage group responsible, found by
/// replaying that frame's intermediates through ap_receiver::front_end,
/// ap_receiver::receive and phy::decode_frame.
[[nodiscard]] std::string check_link_fidelity(const mmtag::core::system_config& cfg,
                                              std::size_t frames, std::size_t payload_bytes);

} // namespace perfbench
