#include "mmtag/antenna/van_atta.hpp"

#include <stdexcept>

namespace mmtag::antenna {

van_atta_array::van_atta_array(const config& cfg, std::shared_ptr<const element> radiator)
    : cfg_(cfg), radiator_(std::move(radiator))
{
    if (cfg.element_count < 2 || cfg.element_count % 2 != 0) {
        throw std::invalid_argument("van_atta_array: element count must be even and >= 2");
    }
    if (cfg.spacing_wavelengths <= 0.0) {
        throw std::invalid_argument("van_atta_array: spacing must be > 0");
    }
    if (cfg.line_loss_db < 0.0) throw std::invalid_argument("van_atta_array: negative line loss");
    if (!radiator_) throw std::invalid_argument("van_atta_array: null element");
    line_amplitude_ = std::pow(10.0, -cfg.line_loss_db / 20.0);
}

cf64 van_atta_array::bistatic_coupling(double theta_in, double theta_out, cf64 gamma) const
{
    const std::size_t n = cfg_.element_count;
    const double kd = two_pi * cfg_.spacing_wavelengths;
    const double sin_in = std::sin(theta_in);
    const double sin_out = std::sin(theta_out);
    cf64 acc{};
    for (std::size_t m = 0; m < n; ++m) {
        const std::size_t source = n - 1 - m; // mirror pairing
        const double phase = kd * (static_cast<double>(source) * sin_in +
                                   static_cast<double>(m) * sin_out);
        acc += std::polar(1.0, phase);
    }
    const double element_fields =
        std::sqrt(radiator_->gain(theta_in) * radiator_->gain(theta_out));
    return acc * element_fields * line_amplitude_ * gamma;
}

double van_atta_array::monostatic_gain(double theta_rad, cf64 gamma) const
{
    return std::norm(bistatic_coupling(theta_rad, theta_rad, gamma));
}

rvec van_atta_array::monostatic_pattern(std::size_t points, cf64 gamma) const
{
    if (points < 2) throw std::invalid_argument("van_atta_array: pattern needs >= 2 points");
    rvec out(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double theta =
            -pi / 2.0 + pi * static_cast<double>(i) / static_cast<double>(points - 1);
        out[i] = monostatic_gain(theta, gamma);
    }
    return out;
}

double van_atta_array::field_of_view(double droop_db) const
{
    if (droop_db <= 0.0) throw std::invalid_argument("van_atta_array: droop must be > 0 dB");
    constexpr std::size_t points = 1801;
    const rvec pattern = monostatic_pattern(points);
    double peak = 0.0;
    std::size_t peak_index = 0;
    for (std::size_t i = 0; i < points; ++i) {
        if (pattern[i] > peak) {
            peak = pattern[i];
            peak_index = i;
        }
    }
    if (peak <= 0.0) return 0.0;
    const double floor = peak * from_db(-droop_db);
    std::size_t low = peak_index;
    while (low > 0 && pattern[low - 1] >= floor) --low;
    std::size_t high = peak_index;
    while (high + 1 < points && pattern[high + 1] >= floor) ++high;
    const double step = pi / static_cast<double>(points - 1);
    return static_cast<double>(high - low) * step;
}

flat_plate_reflector::flat_plate_reflector(std::size_t element_count, double spacing_wavelengths,
                                           std::shared_ptr<const element> radiator)
    : element_count_(element_count), spacing_(spacing_wavelengths), radiator_(std::move(radiator))
{
    if (element_count == 0) throw std::invalid_argument("flat_plate: element count must be >= 1");
    if (spacing_wavelengths <= 0.0) throw std::invalid_argument("flat_plate: spacing must be > 0");
    if (!radiator_) throw std::invalid_argument("flat_plate: null element");
}

cf64 flat_plate_reflector::bistatic_coupling(double theta_in, double theta_out, cf64 gamma) const
{
    // No pairing: element m re-radiates its own signal, so phases add rather
    // than conjugate — specular reflection (peak at theta_out == -theta_in).
    const double kd = two_pi * spacing_;
    const double total_sin = std::sin(theta_in) + std::sin(theta_out);
    cf64 acc{};
    for (std::size_t m = 0; m < element_count_; ++m) {
        acc += std::polar(1.0, kd * static_cast<double>(m) * total_sin);
    }
    const double element_fields =
        std::sqrt(radiator_->gain(theta_in) * radiator_->gain(theta_out));
    return acc * element_fields * gamma;
}

double flat_plate_reflector::monostatic_gain(double theta_rad, cf64 gamma) const
{
    return std::norm(bistatic_coupling(theta_rad, theta_rad, gamma));
}

} // namespace mmtag::antenna
