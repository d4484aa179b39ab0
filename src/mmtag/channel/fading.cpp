#include "mmtag/channel/fading.hpp"

namespace mmtag::channel {

cf64 rician_coefficient(double k_factor_db, std::mt19937_64& rng)
{
    const double k = from_db(k_factor_db);
    const double los_amplitude = std::sqrt(k / (k + 1.0));
    const double scatter_sigma = std::sqrt(1.0 / (2.0 * (k + 1.0)));
    std::normal_distribution<double> gaussian(0.0, scatter_sigma);
    return cf64{los_amplitude + gaussian(rng), gaussian(rng)};
}

} // namespace mmtag::channel
