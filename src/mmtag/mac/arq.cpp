#include "mmtag/mac/arq.hpp"

#include <random>
#include <stdexcept>

namespace mmtag::mac {

double arq_stats::delivery_ratio() const
{
    if (frames_offered == 0) return 0.0;
    return static_cast<double>(frames_delivered) / static_cast<double>(frames_offered);
}

arq_stats stop_and_wait(
    std::size_t frame_count,
    const std::function<bool(std::size_t frame, std::size_t attempt)>& attempt)
{
    arq_stats stats;
    stats.frames_offered = frame_count;
    for (std::size_t f = 0; f < frame_count; ++f) {
        for (std::size_t k = 0; k < stop_and_wait_tries; ++k) {
            ++stats.transmissions;
            if (attempt(f, k)) {
                ++stats.frames_delivered;
                break;
            }
        }
    }
    return stats;
}

arq_stats stop_and_wait(std::size_t frame_count, double frame_success, std::uint64_t seed)
{
    if (!(frame_success >= 0.0 && frame_success <= 1.0)) {
        throw std::invalid_argument("arq: frame_success must be in [0, 1]");
    }
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    return stop_and_wait(frame_count, [&](std::size_t, std::size_t) {
        return uniform(rng) < frame_success;
    });
}

} // namespace mmtag::mac
