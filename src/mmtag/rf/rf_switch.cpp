#include "mmtag/rf/rf_switch.hpp"

#include <algorithm>
#include <stdexcept>

namespace mmtag::rf {

rf_switch::rf_switch(const config& cfg) : cfg_(cfg)
{
    if (cfg.throw_count < 2) throw std::invalid_argument("rf_switch: throw_count must be >= 2");
    if (cfg.rise_fall_time_s < 0.0) throw std::invalid_argument("rf_switch: negative rise time");
    if (cfg.insertion_loss_db < 0.0) {
        throw std::invalid_argument("rf_switch: insertion loss must be >= 0 dB");
    }
    if (cfg.isolation_db <= 0.0) throw std::invalid_argument("rf_switch: isolation must be > 0 dB");
}

double rf_switch::max_symbol_rate_hz() const
{
    if (cfg_.rise_fall_time_s <= 0.0) return 1e18; // ideal switch
    // Allow the transition to occupy at most half the symbol period.
    return 0.5 / cfg_.rise_fall_time_s;
}

cvec rf_switch::state_waveform(std::span<const std::size_t> states,
                               std::span<const cf64> port_coefficients,
                               std::size_t samples_per_symbol, double sample_rate_hz) const
{
    if (port_coefficients.size() != cfg_.throw_count) {
        throw std::invalid_argument("rf_switch: port coefficient count != throw count");
    }
    if (samples_per_symbol == 0) {
        throw std::invalid_argument("rf_switch: samples_per_symbol must be >= 1");
    }
    if (sample_rate_hz <= 0.0) throw std::invalid_argument("rf_switch: sample rate must be > 0");
    for (std::size_t s : states) {
        if (s >= cfg_.throw_count) throw std::invalid_argument("rf_switch: state out of range");
    }

    const double loss = std::pow(10.0, -cfg_.insertion_loss_db / 20.0);
    const double leak = std::pow(10.0, -cfg_.isolation_db / 20.0);

    // Effective coefficient seen at the common port for each selected state:
    // the selected path through insertion loss plus leakage from the others.
    std::vector<cf64> effective(cfg_.throw_count);
    for (std::size_t port = 0; port < cfg_.throw_count; ++port) {
        cf64 others{};
        for (std::size_t k = 0; k < cfg_.throw_count; ++k) {
            if (k != port) others += port_coefficients[k];
        }
        others /= static_cast<double>(cfg_.throw_count - 1);
        effective[port] = loss * port_coefficients[port] + leak * others;
    }

    const auto transition_samples = static_cast<std::size_t>(
        std::round(cfg_.rise_fall_time_s * sample_rate_hz));

    cvec waveform(states.size() * samples_per_symbol);
    for (std::size_t symbol = 0; symbol < states.size(); ++symbol) {
        const cf64 target = effective[states[symbol]];
        const cf64 previous = symbol == 0 ? target : effective[states[symbol - 1]];
        for (std::size_t k = 0; k < samples_per_symbol; ++k) {
            cf64 value = target;
            if (k < transition_samples && previous != target) {
                // Raised-cosine blend from the previous state to the new one.
                const double progress =
                    (static_cast<double>(k) + 0.5) / static_cast<double>(transition_samples);
                const double weight = 0.5 * (1.0 - std::cos(pi * std::min(progress, 1.0)));
                value = previous * (1.0 - weight) + target * weight;
            }
            waveform[symbol * samples_per_symbol + k] = value;
        }
    }
    return waveform;
}

std::size_t rf_switch::count_transitions(std::span<const std::size_t> states)
{
    std::size_t transitions = 0;
    for (std::size_t i = 1; i < states.size(); ++i) {
        if (states[i] != states[i - 1]) ++transitions;
    }
    return transitions;
}

} // namespace mmtag::rf
