#include "mmtag/ap/transmitter.hpp"

#include <array>
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
    // |drive * lo| takes only a few neighbouring values, since |lo| is 1 up
    // to rounding, so the last few (amplitude, Rapp gain) pairs are kept and
    // the gain is evaluated once per distinct amplitude. Amplitudes match
    // only when equal, so each sample is pa_.process(drive * lo) exactly.
    constexpr std::size_t memo_size = 4;
    std::array<double, memo_size> amplitudes; // -1: empty, no amplitude is negative
    amplitudes.fill(-1.0);
    std::array<double, memo_size> gains{};
    std::size_t next = 0; // the slot a miss overwrites, round robin
    for (cf64 lo_sample : out.lo) {
        const cf64 drive = drive_amplitude_ * lo_sample;
        const double amplitude = std::abs(drive);
        if (amplitude < rf::power_amplifier::min_amplitude) {
            out.rf.emplace_back();
            continue;
        }
        std::size_t slot = 0;
        while (slot < memo_size && amplitudes[slot] != amplitude) ++slot;
        if (slot == memo_size) {
            slot = next;
            next = (next + 1) % memo_size;
            amplitudes[slot] = amplitude;
            gains[slot] = pa_.gain(amplitude);
        }
        out.rf.push_back(drive * gains[slot]);
    }
    return out;
}

} // namespace mmtag::ap
