#include "link_mirror.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/dsp/estimators.hpp"
#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"
#include "mmtag/fec/convolutional.hpp"
#include "mmtag/fec/crc.hpp"
#include "mmtag/fec/interleaver.hpp"
#include "mmtag/fec/scrambler.hpp"
#include "mmtag/phy/bitio.hpp"
#include "mmtag/phy/frame.hpp"
#include "mmtag/phy/modulation.hpp"
#include "mmtag/phy/preamble.hpp"

namespace perfbench {

using namespace mmtag;

namespace {

enum stage_index : std::size_t {
    tag_modulate, ap_tx, channel_received, rf_noise, rf_lna, rf_mixer, rf_adc,
    ap_canceller, dsp_timing, phy_sync, phy_demap, fec_deinterleave, fec_viterbi,
    fec_crc,
};

/// Times one stage and charges its heap allocations to it.
class stage_scope {
public:
    explicit stage_scope(stage_totals& totals)
        : totals_(totals), allocations_(thread_allocations()), start_(clock_type::now())
    {
    }
    ~stage_scope()
    {
        totals_.seconds += seconds_since(start_);
        totals_.allocations += thread_allocations() - allocations_;
    }
    stage_scope(const stage_scope&) = delete;
    stage_scope& operator=(const stage_scope&) = delete;

private:
    stage_totals& totals_;
    std::uint64_t allocations_;
    clock_type::time_point start_;
};

// The frame-layout arithmetic phy::decode_frame keeps private.
fec::code_rate to_code_rate(phy::fec_mode mode)
{
    switch (mode) {
    case phy::fec_mode::conv_half: return fec::code_rate::half;
    case phy::fec_mode::conv_two_thirds: return fec::code_rate::two_thirds;
    case phy::fec_mode::conv_three_quarters: return fec::code_rate::three_quarters;
    case phy::fec_mode::uncoded: break;
    }
    throw std::invalid_argument("link_mirror: uncoded mode has no code rate");
}

std::size_t coded_bit_count(std::size_t payload_bytes, phy::fec_mode mode)
{
    const std::size_t info_bits = (payload_bytes + 4) * 8;
    if (mode == phy::fec_mode::uncoded) return info_bits;
    return fec::coded_length(info_bits, to_code_rate(mode));
}

std::size_t interleaved_bit_count(std::size_t payload_bytes, const phy::frame_config& cfg)
{
    const std::size_t coded = coded_bit_count(payload_bytes, cfg.fec);
    const std::size_t block = cfg.interleaver_rows * cfg.interleaver_columns;
    return (coded + block - 1) / block * block;
}

core::system_config validated(const core::system_config& cfg)
{
    core::validate(cfg);
    if (cfg.receiver.lo != ap::lo_mode::self_coherent) {
        throw std::invalid_argument("link_mirror: only the self-coherent receiver is mirrored");
    }
    return cfg;
}

} // namespace

link_mirror::link_mirror(const core::system_config& cfg)
    : cfg_(validated(cfg)),
      channel_(core::make_channel_config(cfg_)),
      modulator_(cfg_.modulator),
      transmitter_(cfg_.transmitter, cfg_.seed * 7919 + 1),
      antenna_noise_(rf::thermal_noise_power(cfg_.receiver.lna.bandwidth_hz),
                     cfg_.seed * 104729 + 2),
      lna_(cfg_.receiver.lna, cfg_.seed * 104729 + 3),
      mixer_(cfg_.receiver.mixer),
      adc_(cfg_.receiver.adc),
      canceller_(cfg_.receiver.canceller)
{
}

void link_mirror::reset_totals()
{
    stages_ = {};
    frames_ = 0;
    samples_ = 0;
    viterbi_bits_ = 0;
}

mirror_frame link_mirror::run_frame(std::span<const std::uint8_t> payload)
{
    ++trial_;
    ++frames_;
    mirror_frame out;
    const auto& rx_cfg = cfg_.receiver;
    if (cfg_.rician_k_db < 80.0) {
        channel_.redraw_fading(cfg_.seed * 6364136223846793005ULL + trial_);
    }

    cvec gamma;
    std::size_t capture = 0;
    {
        const stage_scope scope(stages_[tag_modulate]);
        const tag::modulated_frame frame = modulator_.modulate(payload);
        const std::size_t margin =
            4 * modulator_.samples_per_symbol() +
            static_cast<std::size_t>(std::ceil(2.5 * rx_cfg.canceller.tail_fraction *
                                               static_cast<double>(frame.gamma.size())));
        const std::size_t base =
            frame.gamma.size() + 2 * channel_.one_way_delay_samples() + margin;
        const double training =
            rx_cfg.canceller.training_fraction + rx_cfg.canceller.training_skip;
        const auto lead = static_cast<std::size_t>(
                              std::ceil(2.0 * training * static_cast<double>(base))) +
                          modulator_.samples_per_symbol();
        gamma.assign(lead, frame.gamma.front());
        gamma.insert(gamma.end(), frame.gamma.begin(), frame.gamma.end());
        capture = base + lead;
    }
    samples_ += capture;

    ap::ap_transmitter::query query;
    {
        const stage_scope scope(stages_[ap_tx]);
        query = transmitter_.generate(capture);
    }
    {
        const stage_scope scope(stages_[channel_received]);
        out.antenna = channel_.ap_received(query.rf, gamma);
    }
    out.lo = std::move(query.lo);

    // ap_receiver::front_end, one component at a time.
    cvec rf;
    {
        const stage_scope scope(stages_[rf_noise]);
        rf = antenna_noise_.apply(out.antenna);
    }
    {
        const stage_scope scope(stages_[rf_lna]);
        rf = lna_.process(rf);
    }
    cvec baseband;
    {
        const stage_scope scope(stages_[rf_mixer]);
        baseband = mixer_.downconvert(rf, out.lo);
    }
    {
        const stage_scope scope(stages_[rf_adc]);
        const double rms = dsp::rms(baseband);
        if (rms > 0.0) {
            const double scale = rx_cfg.adc_loading * adc_.full_scale() / rms;
            for (auto& x : baseband) x *= scale;
            baseband = adc_.sample(baseband);
            for (auto& x : baseband) x /= scale;
        }
    }
    {
        const stage_scope scope(stages_[ap_canceller]);
        out.cleaned = canceller_.process(baseband);
        out.rx.suppression_db = canceller_.last_suppression_db();
    }

    // ap_receiver::receive after the front end (self-coherent path).
    cvec symbols;
    {
        const stage_scope scope(stages_[dsp_timing]);
        const std::size_t offset =
            dsp::best_symbol_offset(out.cleaned, rx_cfg.samples_per_symbol);
        symbols = dsp::integrate_and_dump(out.cleaned, rx_cfg.samples_per_symbol, offset);
    }
    std::optional<phy::sync_result> sync;
    {
        const stage_scope scope(stages_[phy_sync]);
        if (symbols.size() >= phy::header_symbol_count + rx_cfg.frame.preamble.total_symbols()) {
            sync = phy::detect_preamble(symbols, rx_cfg.frame.preamble, rx_cfg.min_sync_quality);
        }
        if (sync) {
            out.rx.sync_quality = sync->peak_to_sidelobe;
            out.rx.channel_gain = sync->channel_gain;
            if (std::abs(sync->channel_gain) < 1e-15) {
                sync.reset();
            } else {
                for (auto& s : symbols) s /= sync->channel_gain;
                const cvec reference = phy::sync_word(rx_cfg.frame.preamble);
                const std::size_t sync_start = sync->frame_start - reference.size();
                const std::span<const cf64> sync_span{symbols.data() + sync_start,
                                                      reference.size()};
                out.rx.snr_db = dsp::snr_estimate_db(sync_span, reference);
                out.rx.evm_db = dsp::evm_db(sync_span, reference);
                double residual = 0.0;
                for (std::size_t i = 0; i < reference.size(); ++i) {
                    residual += std::norm(sync_span[i] - reference[i]);
                }
                out.rx.noise_variance =
                    std::max(residual / static_cast<double>(reference.size()), 1e-12);
            }
        }
    }
    if (!sync) return out;
    out.frame_start = sync->frame_start;

    // phy::decode_frame, one stage at a time.
    const std::span<const cf64> frame_span{symbols.data() + sync->frame_start,
                                           symbols.size() - sync->frame_start};
    std::optional<phy::decoded_header> header;
    phy::frame_config decode_cfg = rx_cfg.frame;
    std::vector<double> soft;
    {
        const stage_scope scope(stages_[phy_demap]);
        header = phy::decode_header(frame_span);
        if (header) {
            decode_cfg.scheme = header->scheme;
            decode_cfg.fec = header->fec;
            const std::size_t payload_symbols =
                phy::payload_symbol_count(header->payload_bytes, decode_cfg);
            if (frame_span.size() < phy::header_symbol_count + payload_symbols) {
                header.reset();
            } else {
                soft = phy::demap_soft(
                    frame_span.subspan(phy::header_symbol_count, payload_symbols),
                    decode_cfg.scheme, out.rx.noise_variance);
            }
        }
    }
    if (!header) {
        out.rx.symbols = std::move(symbols);
        return out;
    }
    {
        const stage_scope scope(stages_[fec_deinterleave]);
        soft.resize(interleaved_bit_count(header->payload_bytes, decode_cfg));
        const fec::block_interleaver interleaver(decode_cfg.interleaver_rows,
                                                 decode_cfg.interleaver_columns);
        soft = interleaver.deinterleave_soft(soft);
        soft.resize(coded_bit_count(header->payload_bytes, decode_cfg.fec));
    }
    std::vector<std::uint8_t> bits;
    const std::size_t info_bits = (header->payload_bytes + 4) * 8;
    {
        const stage_scope scope(stages_[fec_viterbi]);
        if (decode_cfg.fec == phy::fec_mode::uncoded) {
            bits.reserve(soft.size());
            for (const double value : soft) bits.push_back(value < 0.0 ? 1 : 0);
        } else {
            bits = fec::viterbi_decode_soft(soft, to_code_rate(decode_cfg.fec));
            viterbi_bits_ += info_bits;
        }
        bits.resize(info_bits);
    }
    {
        const stage_scope scope(stages_[fec_crc]);
        const std::vector<std::uint8_t> whitened = phy::bits_to_bytes(bits);
        const std::vector<std::uint8_t> dewhitened =
            fec::scramble_bytes(whitened, decode_cfg.scrambler_seed);
        out.rx.crc_ok = fec::check_and_strip_crc32(dewhitened, out.rx.payload);
        if (!out.rx.crc_ok) out.rx.payload.assign(dewhitened.begin(), dewhitened.end() - 4);
    }
    out.rx.frame_found = true;
    out.rx.header = *header;
    out.rx.symbols = std::move(symbols);
    out.delivered = out.rx.crc_ok;
    return out;
}

namespace {

bool same_reception(const ap::reception& a, const ap::reception& b)
{
    return a.frame_found == b.frame_found && a.crc_ok == b.crc_ok &&
           a.payload == b.payload && a.snr_db == b.snr_db;
}

std::string divergence(std::size_t frame, const char* stage, const char* detail)
{
    char text[256];
    std::snprintf(text, sizeof text, "frame %zu diverged in %s (%s)", frame, stage, detail);
    return text;
}

} // namespace

std::string check_link_fidelity(const core::system_config& cfg, std::size_t frames,
                                std::size_t payload_bytes)
{
    core::link_simulator reference(cfg);
    link_mirror mirror(cfg);
    // Twins of the simulator's receiver, driven with the mirror's own
    // intermediates, localize a divergence to a stage group.
    ap::ap_receiver twin_receive(cfg.receiver, cfg.seed * 104729 + 2);
    ap::ap_receiver twin_front_end(cfg.receiver, cfg.seed * 104729 + 2);

    for (std::size_t f = 0; f < frames; ++f) {
        const auto payload = phy::random_bytes(payload_bytes, cfg.seed * 1'000'003 + 2 * f);
        const auto expected = reference.run_frame(payload);
        const mirror_frame got = mirror.run_frame(payload);
        const ap::reception twin_rx = twin_receive.receive(got.antenna, got.lo);
        const cvec twin_cleaned = twin_front_end.front_end(got.antenna, got.lo);

        if (twin_cleaned != got.cleaned) {
            return divergence(f, "rf.noise/rf.lna/rf.mixer/rf.adc/ap.canceller",
                              "canceller output differs from ap_receiver::front_end");
        }
        if (!same_reception(twin_rx, got.rx)) {
            if (got.frame_start > 0) {
                const std::span<const cf64> frame_span{
                    got.rx.symbols.data() + got.frame_start,
                    got.rx.symbols.size() - got.frame_start};
                const auto decoded =
                    phy::decode_frame(frame_span, cfg.receiver.frame, got.rx.noise_variance);
                const bool same_decode =
                    decoded.has_value() == got.rx.frame_found &&
                    (!decoded || (decoded->crc_ok == got.rx.crc_ok &&
                                  decoded->payload == got.rx.payload));
                if (!same_decode) {
                    return divergence(f, "phy.demap/fec.deinterleave/fec.viterbi/fec.crc",
                                      "payload differs from phy::decode_frame");
                }
            }
            return divergence(f, "dsp.timing/phy.sync",
                              "reception differs from ap_receiver::receive");
        }
        if (!same_reception(expected.rx, got.rx) || expected.delivered != got.delivered) {
            return divergence(f, "tag.modulate/ap.tx/channel.ap_received",
                              "capture differs from core::link_simulator::run_frame");
        }
    }
    return {};
}

} // namespace perfbench
