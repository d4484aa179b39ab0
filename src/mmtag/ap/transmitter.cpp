#include "mmtag/ap/transmitter.hpp"

#include <stdexcept>

namespace mmtag::ap {

ap_transmitter::ap_transmitter(const config& cfg, std::uint64_t seed)
    : cfg_(cfg),
      lo_(rf::oscillator::config{.sample_rate_hz = cfg.sample_rate_hz,
                                 .linewidth_hz = cfg.lo_linewidth_hz},
          seed),
      pa_(cfg.pa),
      tx_power_w_(dbm_to_watt(cfg.tx_power_dbm))
{
    if (cfg.sample_rate_hz <= 0.0) throw std::invalid_argument("ap_transmitter: fs <= 0");
    // Solve the PA drive level so the radiated CW power matches tx_power_dbm.
    // The Rapp model is monotonic; bisect on input amplitude.
    const double target_amplitude = std::sqrt(tx_power_w_);
    double low = 0.0;
    double high = target_amplitude * 10.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (low + high);
        const double out = std::abs(pa_.process(cf64{mid, 0.0}));
        if (out < target_amplitude) low = mid;
        else high = mid;
    }
    drive_amplitude_ = 0.5 * (low + high);
    const double achieved = std::abs(pa_.process(cf64{drive_amplitude_, 0.0}));
    if (achieved < target_amplitude * 0.99) {
        throw simulation_error("ap_transmitter: requested power exceeds PA saturation");
    }
}

ap_transmitter::query ap_transmitter::generate(std::size_t count)
{
    query out;
    out.lo = lo_.generate(count);
    out.rf.reserve(count);
    for (cf64 lo_sample : out.lo) {
        out.rf.push_back(pa_.process(drive_amplitude_ * lo_sample));
    }
    return out;
}

} // namespace mmtag::ap
