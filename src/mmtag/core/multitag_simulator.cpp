#include "mmtag/core/multitag_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mmtag/fault/fault_injector.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/scoped_timer.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::core {

multitag_simulator::multitag_simulator(const system_config& base,
                                       std::vector<tag_descriptor> tags)
    : base_([&] {
          validate(base);
          return base;
      }()),
      tags_(std::move(tags)),
      modulator_(base_.modulator),
      transmitter_(base_.transmitter, base_.seed * 2654435761ULL + 3)
{
    if (tags_.empty()) throw std::invalid_argument("multitag_simulator: no tags");
    rebuild_seeded_state();
}

void multitag_simulator::rebuild_seeded_state()
{
    channels_.clear();
    channels_.reserve(tags_.size());
    for (const auto& tag : tags_) {
        system_config cfg = base_;
        cfg.distance_m = tag.distance_m;
        cfg.tag_incidence_rad = tag.incidence_rad;
        channels_.emplace_back(make_channel_config(cfg));
    }
}

void multitag_simulator::reseed(std::uint64_t seed)
{
    base_.seed = seed;
    transmitter_ = ap::ap_transmitter(base_.transmitter, base_.seed * 2654435761ULL + 3);
    rebuild_seeded_state();
    clock_s_ = 0.0;
    runs_ = 0;
}

void multitag_simulator::attach_tag_fault_injectors(
    std::vector<fault::fault_injector*> injectors)
{
    if (!injectors.empty() && injectors.size() != channels_.size()) {
        throw std::invalid_argument(
            "multitag_simulator: tag injector count must match tag count");
    }
    tag_faults_ = std::move(injectors);
}

namespace {

// Robust-mode modulator sharing everything with the base configuration but
// the payload (modulation, FEC) pair — preamble, header coding, bank and
// switch stay identical, so the override only changes payload density.
tag::backscatter_modulator with_mcs(const tag::backscatter_modulator& base,
                                    const phy::mcs& mcs)
{
    tag::backscatter_modulator::config cfg = base.parameters();
    cfg.frame.scheme = mcs.scheme;
    cfg.frame.fec = mcs.fec;
    return tag::backscatter_modulator(cfg);
}

} // namespace

double multitag_simulator::burst_duration_s(std::size_t payload_bytes) const
{
    const auto frame = modulator_.modulate(std::vector<std::uint8_t>(payload_bytes, 0));
    return frame.duration_s;
}

double multitag_simulator::burst_duration_s(std::size_t payload_bytes,
                                            const phy::mcs& mcs) const
{
    const auto frame =
        with_mcs(modulator_, mcs).modulate(std::vector<std::uint8_t>(payload_bytes, 0));
    return frame.duration_s;
}

std::vector<burst_outcome> multitag_simulator::run(const std::vector<tag_burst>& bursts)
{
    MMTAG_SCOPED_TIMER(metrics_, "time/multitag_capture");
    const obs::trace_span span("multitag.capture", "multitag");
    ++runs_;
    for (const auto& burst : bursts) {
        if (burst.tag_index >= channels_.size()) {
            throw std::invalid_argument("multitag_simulator: tag index out of range");
        }
    }

    // Modulate every burst and find the capture extent.
    const double fs = base_.sample_rate_hz;
    const std::size_t sps = modulator_.samples_per_symbol();
    std::vector<tag::modulated_frame> frames;
    std::vector<std::size_t> starts;
    frames.reserve(bursts.size());
    std::size_t latest_end = 0;
    // Lead for the canceller's quiet background window.
    const double training = base_.receiver.canceller.training_fraction +
                            base_.receiver.canceller.training_skip;
    for (const auto& burst : bursts) {
        frames.push_back(burst.mcs ? with_mcs(modulator_, *burst.mcs).modulate(burst.payload)
                                   : modulator_.modulate(burst.payload));
        const auto start = static_cast<std::size_t>(std::round(burst.start_s * fs));
        starts.push_back(start);
        latest_end = std::max(latest_end, start + frames.back().gamma.size());
    }
    const std::size_t margin =
        8 * sps + static_cast<std::size_t>(
                      std::ceil(4.0 * base_.receiver.canceller.tail_fraction *
                                static_cast<double>(latest_end)));
    std::size_t capture = latest_end + margin;
    const auto lead = static_cast<std::size_t>(
        std::ceil(2.0 * training * static_cast<double>(capture))) + sps;
    capture += lead;

    auto query = transmitter_.generate(capture);

    const double window_s = static_cast<double>(capture) / fs;
    fault::impairment shared;
    if (faults_ != nullptr) shared = faults_->at(clock_s_, window_s);
    if (shared.carrier_amplitude != 1.0) {
        // Carrier dropout hits every tag at once; the receive LO keeps going.
        for (auto& s : query.rf) s *= shared.carrier_amplitude;
    }

    // Environment: leakage + clutter from the first channel (shared room).
    const cvec quiet(1, cf64{});
    cvec antenna = channels_.front().ap_received(query.rf, quiet);

    // Superpose each tag's reflection, placed at its slot.
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        // Per-burst faults: blockage shadows this tag's path twice, a
        // brownout silences its modulation for the burst.
        double burst_scale = 1.0;
        if (faults_ != nullptr) {
            const auto imp = faults_->at(clock_s_ + bursts[b].start_s,
                                         frames[b].duration_s);
            burst_scale =
                imp.tag_powered ? imp.tag_amplitude * imp.tag_amplitude : 0.0;
        }
        // Per-tag faults compound with the shared channel's: both paths can
        // shadow the same burst (a blocked tag during a carrier brownout).
        if (!tag_faults_.empty() && tag_faults_[bursts[b].tag_index] != nullptr) {
            const auto imp = tag_faults_[bursts[b].tag_index]->at(
                clock_s_ + bursts[b].start_s, frames[b].duration_s);
            burst_scale *=
                imp.tag_powered ? imp.tag_amplitude * imp.tag_amplitude : 0.0;
        }
        cvec gamma(capture, cf64{});
        const std::size_t start = starts[b] + lead;
        const auto& wave = frames[b].gamma;
        for (std::size_t i = 0; i < wave.size() && start + i < capture; ++i) {
            gamma[start + i] = wave[i] * burst_scale;
        }
        const cvec contribution =
            channels_[bursts[b].tag_index].tag_contribution(query.rf, gamma);
        for (std::size_t i = 0; i < capture; ++i) antenna[i] += contribution[i];
    }

    if (shared.interferer_active()) {
        // CW burst referenced to the strongest tag's round-trip return.
        double reference = 0.0;
        for (const auto& chan : channels_) {
            reference = std::max(reference, chan.round_trip_amplitude());
        }
        const double amplitude = reference * std::sqrt(transmitter_.tx_power_w()) *
                                 std::pow(10.0, shared.interferer_rel_db / 20.0);
        const double step =
            two_pi * 0.35 * base_.symbol_rate_hz / base_.sample_rate_hz;
        for (std::size_t i = 0; i < antenna.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            antenna[i] += amplitude * cf64{std::cos(phase), std::sin(phase)};
        }
    }
    if (shared.lo_offset_hz != 0.0) {
        const double step = two_pi * shared.lo_offset_hz / base_.sample_rate_hz;
        for (std::size_t i = 0; i < antenna.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            antenna[i] *= cf64{std::cos(phase), std::sin(phase)};
        }
    }

    // Receive each burst in its own window (slot receiver). The canceller
    // trains its background estimate on the leading fraction of whatever it
    // is given, so every slot window is stitched as quiet head + slot: the
    // capture's genuinely tag-free lead (static leakage and clutter only)
    // followed by this burst's region. Using the region immediately before
    // the burst instead would hand slots after the first a "background"
    // polluted by the previous burst, costing ~20 dB of residual floor and
    // silently erasing the weakest tags.
    std::vector<burst_outcome> outcomes(bursts.size());
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        const std::size_t start = starts[b] + lead;
        const std::size_t pre = std::min<std::size_t>(start, 4 * sps);
        const std::size_t begin = start - pre;
        const std::size_t window_tail =
            4 * sps + static_cast<std::size_t>(
                          std::ceil(2.5 * base_.receiver.canceller.tail_fraction *
                                    static_cast<double>(frames[b].gamma.size())));
        const std::size_t end =
            std::min(capture, start + frames[b].gamma.size() + window_tail);
        cvec window(lead + (end - begin));
        cvec lo(lead + (end - begin));
        std::copy(antenna.begin(), antenna.begin() + static_cast<std::ptrdiff_t>(lead),
                  window.begin());
        std::copy(query.lo.begin(), query.lo.begin() + static_cast<std::ptrdiff_t>(lead),
                  lo.begin());
        std::copy(antenna.begin() + static_cast<std::ptrdiff_t>(begin),
                  antenna.begin() + static_cast<std::ptrdiff_t>(end),
                  window.begin() + static_cast<std::ptrdiff_t>(lead));
        std::copy(query.lo.begin() + static_cast<std::ptrdiff_t>(begin),
                  query.lo.begin() + static_cast<std::ptrdiff_t>(end),
                  lo.begin() + static_cast<std::ptrdiff_t>(lead));

        ap::ap_receiver receiver(base_.receiver,
                                 base_.seed * 7177 + runs_ * 131 + b);
        const auto rx = receiver.receive(window, lo);
        outcomes[b].frame_found = rx.frame_found;
        outcomes[b].snr_db = rx.snr_db;
        outcomes[b].payload = rx.payload;
        outcomes[b].delivered =
            rx.frame_found && rx.crc_ok && rx.payload == bursts[b].payload;
    }
    clock_s_ += window_s;

    if (metrics_ != nullptr) {
        metrics_->get_counter("multitag/captures").add();
        metrics_->get_counter("multitag/bursts").add(bursts.size());
        for (const auto& outcome : outcomes) {
            if (outcome.delivered) {
                metrics_->get_counter("multitag/bursts_delivered").add();
            } else if (!outcome.frame_found) {
                metrics_->get_counter("multitag/bursts_lost").add();
            }
            if (outcome.frame_found) {
                metrics_->get_histogram("multitag/snr_db", obs::snr_bounds_db())
                    .observe(outcome.snr_db);
            }
        }
    }
    return outcomes;
}

} // namespace mmtag::core
