#include "mmtag/ap/receiver.hpp"

#include <algorithm>
#include <stdexcept>

#include "mmtag/dsp/carrier_recovery.hpp"
#include "mmtag/dsp/estimators.hpp"
#include "mmtag/dsp/pulse_shape.hpp"
#include "mmtag/dsp/timing_recovery.hpp"
#include "mmtag/phy/preamble.hpp"
#include "mmtag/rf/oscillator.hpp"

namespace mmtag::ap {

ap_receiver::ap_receiver(const config& cfg, std::uint64_t seed)
    : cfg_(cfg),
      antenna_noise_(rf::thermal_noise_power(cfg.lna.bandwidth_hz), seed),
      lna_(cfg.lna, seed + 1),
      mixer_(cfg.mixer),
      adc_(cfg.adc),
      canceller_(cfg.canceller),
      lo_seed_(seed + 2)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("ap_receiver: fs <= 0");
    if (cfg.samples_per_symbol < 2) {
        throw std::invalid_argument("ap_receiver: samples_per_symbol must be >= 2");
    }
    if (!(cfg.adc_loading > 0.0 && cfg.adc_loading <= 1.0)) {
        throw std::invalid_argument("ap_receiver: adc_loading must be in (0, 1]");
    }
}

cvec ap_receiver::front_end(std::span<const cf64> antenna, std::span<const cf64> lo,
                            double* suppression_db)
{
    if (antenna.size() != lo.size()) {
        throw std::invalid_argument("ap_receiver: antenna/lo length mismatch");
    }
    // Antenna-plane thermal noise, then the LNA (gain + excess noise), both
    // on one buffer.
    cvec rf(antenna.begin(), antenna.end());
    antenna_noise_.add_to(rf);
    lna_.process_in_place(rf);

    // Downconversion: the transmitter's LO (self-coherent) or a separate
    // synthesizer with its own CFO/phase noise (ablation mode).
    cvec baseband;
    if (cfg_.lo == lo_mode::self_coherent) {
        baseband = mixer_.downconvert(rf, lo);
    } else {
        rf::oscillator::config lo_cfg;
        lo_cfg.sample_rate_hz = cfg_.sample_rate_hz;
        lo_cfg.frequency_offset_hz = cfg_.independent_cfo_hz;
        lo_cfg.linewidth_hz = cfg_.independent_linewidth_hz;
        rf::oscillator local(lo_cfg, lo_seed_ + ++captures_);
        const cvec local_lo = local.generate(rf.size());
        baseband = mixer_.downconvert(rf, local_lo);
    }

    // Analog gain scales the composite signal into the ADC, then is divided
    // back out so downstream levels stay physical while quantization is
    // referred to the (interference-dominated) input.
    const double rms = dsp::rms(baseband);
    if (rms > 0.0) {
        const double scale = cfg_.adc_loading * adc_.full_scale() / rms;
        for (auto& x : baseband) x *= scale;
        baseband = adc_.sample(baseband);
        for (auto& x : baseband) x /= scale;
    }

    cvec cleaned = canceller_.process(baseband);
    if (suppression_db != nullptr) *suppression_db = canceller_.last_suppression_db();
    return cleaned;
}

reception ap_receiver::receive(std::span<const cf64> antenna, std::span<const cf64> lo)
{
    reception result;
    cvec cleaned = front_end(antenna, lo, &result.suppression_db);

    // Symbol timing: integrate-and-dump at the best-energy offset.
    const std::size_t offset = dsp::best_symbol_offset(cleaned, cfg_.samples_per_symbol);
    cvec symbols = dsp::integrate_and_dump(cleaned, cfg_.samples_per_symbol, offset);

    // Independent-LO mode leaves a rotating carrier on the symbols. Recover
    // it data-aided: find the sync word (its correlation tolerates modest
    // rotation across 63 symbols), estimate the frequency offset over the
    // known pilots, derotate the whole stream, and fall through to the
    // standard processing. Constant phase is absorbed by the gain estimate.
    if (cfg_.lo == lo_mode::independent) {
        const auto coarse =
            phy::detect_preamble(symbols, cfg_.frame.preamble, cfg_.min_sync_quality);
        if (!coarse) return result;
        const cvec pilots = phy::sync_word(cfg_.frame.preamble);
        const std::size_t pilot_start = coarse->frame_start - pilots.size();
        const std::span<const cf64> observed{symbols.data() + pilot_start, pilots.size()};
        const double cfo_per_symbol = dsp::estimate_frequency_offset(observed, pilots);
        for (std::size_t i = 0; i < symbols.size(); ++i) {
            symbols[i] *= std::polar(1.0, -two_pi * cfo_per_symbol *
                                              static_cast<double>(i));
        }
    }
    if (symbols.size() < phy::header_symbol_count + cfg_.frame.preamble.total_symbols()) {
        return result;
    }

    // Burst sync on the preamble's m-sequence.
    const auto sync =
        phy::detect_preamble(symbols, cfg_.frame.preamble, cfg_.min_sync_quality);
    if (!sync) return result;
    result.sync_quality = sync->peak_to_sidelobe;
    result.channel_gain = sync->channel_gain;
    if (std::abs(sync->channel_gain) < 1e-15) return result;

    // Normalize by the estimated complex gain.
    for (auto& s : symbols) s /= sync->channel_gain;

    // Link metrics over the sync word.
    const cvec reference = phy::sync_word(cfg_.frame.preamble);
    const std::size_t sync_start = sync->frame_start - reference.size();
    const std::span<const cf64> sync_span{symbols.data() + sync_start, reference.size()};
    result.snr_db = dsp::snr_estimate_db(sync_span, reference);
    result.evm_db = dsp::evm_db(sync_span, reference);

    // Noise variance per normalized symbol (feeds the soft demapper).
    double residual = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        residual += std::norm(sync_span[i] - reference[i]);
    }
    result.noise_variance = std::max(residual / static_cast<double>(reference.size()), 1e-12);

    // Frame decode from the header onward.
    const std::span<const cf64> frame_span{symbols.data() + sync->frame_start,
                                           symbols.size() - sync->frame_start};
    const auto decoded = phy::decode_frame(frame_span, cfg_.frame, result.noise_variance);
    if (!decoded) {
        result.symbols = std::move(symbols);
        return result;
    }
    result.frame_found = true;
    result.crc_ok = decoded->crc_ok;
    result.payload = decoded->payload;
    result.header = decoded->header;
    result.symbols = std::move(symbols);
    return result;
}

} // namespace mmtag::ap
