#include "mmtag/channel/path_loss.hpp"

#include <stdexcept>

namespace mmtag::channel {

namespace {

void check_positive(double value, const char* what)
{
    if (value <= 0.0) throw std::invalid_argument(std::string("path_loss: ") + what);
}

} // namespace

double free_space_path_loss(double distance_m, double frequency_hz)
{
    check_positive(distance_m, "distance must be > 0");
    const double lambda = wavelength(frequency_hz);
    const double ratio = 4.0 * pi * distance_m / lambda;
    return ratio * ratio;
}

double one_way_received_power(double tx_power_w, double tx_gain, double rx_gain,
                              double distance_m, double frequency_hz)
{
    check_positive(tx_power_w, "tx power must be > 0");
    check_positive(tx_gain, "tx gain must be > 0");
    check_positive(rx_gain, "rx gain must be > 0");
    return tx_power_w * tx_gain * rx_gain / free_space_path_loss(distance_m, frequency_hz);
}

double backscatter_received_power(double tx_power_w, double tx_gain, double rx_gain,
                                  double tag_backscatter_gain, double distance_m,
                                  double frequency_hz)
{
    check_positive(tag_backscatter_gain, "tag backscatter gain must be > 0");
    const double one_way = free_space_path_loss(distance_m, frequency_hz);
    return tx_power_w * tx_gain * rx_gain * tag_backscatter_gain / (one_way * one_way);
}

} // namespace mmtag::channel
