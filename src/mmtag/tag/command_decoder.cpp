#include "mmtag/tag/command_decoder.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::tag {

command_decoder::command_decoder(const config& cfg)
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("command_decoder: fs <= 0");
    if (cfg.unit_s <= 0.0) throw std::invalid_argument("command_decoder: unit <= 0");
    unit_samples_ = static_cast<std::size_t>(std::round(cfg.unit_s * cfg.sample_rate_hz));
    if (unit_samples_ < 4) throw std::invalid_argument("command_decoder: unit too short");
}

std::vector<command_decoder::run> command_decoder::slice(
    std::span<const double> envelope) const
{
    std::vector<run> runs;
    if (envelope.empty()) return runs;
    // Adaptive slicer: threshold halfway between the observed extremes.
    const auto [lo_it, hi_it] = std::minmax_element(envelope.begin(), envelope.end());
    const double lo = *lo_it;
    const double hi = *hi_it;
    if (hi - lo < 1e-12) return runs; // no modulation present
    constexpr double threshold_fraction = 0.5;
    const double threshold = lo + threshold_fraction * (hi - lo);

    bool current = envelope[0] >= threshold;
    std::size_t length = 0;
    for (double v : envelope) {
        const bool high = v >= threshold;
        if (high == current) {
            ++length;
        } else {
            runs.push_back({current, length});
            current = high;
            length = 1;
        }
    }
    runs.push_back({current, length});
    return runs;
}

double command_decoder::units(std::size_t samples) const
{
    return static_cast<double>(samples) / static_cast<double>(unit_samples_);
}

std::optional<command_decoder::decoded> command_decoder::decode(
    std::span<const double> envelope) const
{
    const std::vector<run> runs = slice(envelope);

    // Find the delimiter: a low run of ~3 units followed by high ~1, low ~1.
    for (std::size_t i = 0; i + 2 < runs.size(); ++i) {
        if (runs[i].high || std::abs(units(runs[i].samples) - 3.0) > 0.6) continue;
        if (!runs[i + 1].high || std::abs(units(runs[i + 1].samples) - 1.0) > 0.4) continue;
        if (runs[i + 2].high || std::abs(units(runs[i + 2].samples) - 1.0) > 0.4) continue;

        // Bits follow: high of ~1 (=0) or ~2 (=1) units, each with a 1-unit gap.
        std::vector<std::uint8_t> bits;
        std::size_t cursor = i + 3;
        std::size_t consumed_samples = 0;
        for (std::size_t r = 0; r <= i + 2; ++r) consumed_samples += runs[r].samples;
        while (bits.size() < 40 && cursor + 1 < runs.size() + 1) {
            if (cursor >= runs.size() || !runs[cursor].high) break;
            const double high_units = units(runs[cursor].samples);
            if (std::abs(high_units - 1.0) < 0.4) bits.push_back(0);
            else if (std::abs(high_units - 2.0) < 0.4) bits.push_back(1);
            else break;
            consumed_samples += runs[cursor].samples;
            ++cursor;
            if (bits.size() < 40) {
                if (cursor >= runs.size() || runs[cursor].high ||
                    std::abs(units(runs[cursor].samples) - 1.0) > 0.4) {
                    break;
                }
                consumed_samples += runs[cursor].samples;
                ++cursor;
            }
        }
        if (bits.size() != 40) continue; // try the next delimiter candidate

        const auto command = ap::parse_command_bits(bits);
        if (!command) continue;
        decoded result;
        result.command = *command;
        result.end_sample = consumed_samples;
        return result;
    }
    return std::nullopt;
}

} // namespace mmtag::tag
