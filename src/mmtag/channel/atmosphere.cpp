#include "mmtag/channel/atmosphere.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

namespace mmtag::channel {

namespace {

struct table_point {
    double frequency_ghz;
    double value;
};

double interpolate(std::span<const table_point> table, double frequency_ghz)
{
    if (frequency_ghz <= table.front().frequency_ghz) return table.front().value;
    if (frequency_ghz >= table.back().frequency_ghz) return table.back().value;
    for (std::size_t i = 1; i < table.size(); ++i) {
        if (frequency_ghz <= table[i].frequency_ghz) {
            const auto& lo = table[i - 1];
            const auto& hi = table[i];
            const double t = (frequency_ghz - lo.frequency_ghz) /
                             (hi.frequency_ghz - lo.frequency_ghz);
            // Attenuation spans decades; interpolate in log domain.
            return std::exp(std::log(lo.value) * (1.0 - t) + std::log(hi.value) * t);
        }
    }
    return table.back().value;
}

// Combined O2 + H2O specific attenuation, sea level, 7.5 g/m^3 humidity
// (ITU-R P.676 reference curves, coarse tabulation).
constexpr std::array<table_point, 14> gaseous_table{{
    {1.0, 0.006},
    {5.0, 0.008},
    {10.0, 0.012},
    {15.0, 0.030},
    {22.2, 0.190}, // water vapor line
    {24.0, 0.150},
    {28.0, 0.110},
    {38.0, 0.120},
    {50.0, 0.400},
    {57.0, 6.0},
    {60.0, 15.0}, // oxygen absorption peak
    {63.0, 7.0},
    {70.0, 0.90},
    {100.0, 0.50},
}};

// ITU-R P.838 k/alpha (horizontal polarization, coarse grid).
constexpr std::array<table_point, 7> rain_k_table{{
    {10.0, 0.0101},
    {20.0, 0.0751},
    {24.0, 0.1135},
    {30.0, 0.2403},
    {40.0, 0.4431},
    {60.0, 0.8606},
    {100.0, 1.3671},
}};
constexpr std::array<table_point, 7> rain_alpha_table{{
    {10.0, 1.2765},
    {20.0, 1.0990},
    {24.0, 1.0550},
    {30.0, 0.9485},
    {40.0, 0.8673},
    {60.0, 0.7656},
    {100.0, 0.6815},
}};

} // namespace

double gaseous_attenuation_db_per_km(double frequency_hz)
{
    if (frequency_hz <= 0.0) throw std::invalid_argument("atmosphere: frequency must be > 0");
    return interpolate(gaseous_table, frequency_hz / 1e9);
}

double rain_attenuation_db_per_km(double frequency_hz, double rain_rate_mm_per_hr)
{
    if (rain_rate_mm_per_hr < 0.0) throw std::invalid_argument("atmosphere: negative rain rate");
    if (rain_rate_mm_per_hr == 0.0) return 0.0;
    const double ghz = frequency_hz / 1e9;
    const double k = interpolate(rain_k_table, ghz);
    const double alpha = interpolate(rain_alpha_table, ghz);
    return k * std::pow(rain_rate_mm_per_hr, alpha);
}

double atmospheric_loss_db(double distance_m, double db_per_km)
{
    if (distance_m < 0.0) throw std::invalid_argument("atmosphere: negative distance");
    const double km = distance_m / 1000.0;
    return km * db_per_km;
}

} // namespace mmtag::channel
