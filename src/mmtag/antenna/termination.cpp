#include "mmtag/antenna/termination.hpp"

#include <stdexcept>

namespace mmtag::antenna {

cf64 gamma_short()
{
    return cf64{-1.0, 0.0};
}

cf64 gamma_matched()
{
    return cf64{0.0, 0.0};
}

cf64 line_transform(cf64 gamma_load, double beta_length_rad)
{
    return gamma_load * std::polar(1.0, -2.0 * beta_length_rad);
}

cf64 line_transform_lossy(cf64 gamma_load, double beta_length_rad, double alpha_db)
{
    if (alpha_db < 0.0) throw std::invalid_argument("line_transform_lossy: loss must be >= 0 dB");
    const double round_trip_loss = std::pow(10.0, -2.0 * alpha_db / 20.0);
    return round_trip_loss * line_transform(gamma_load, beta_length_rad);
}

} // namespace mmtag::antenna
