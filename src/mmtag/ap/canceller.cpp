#include "mmtag/ap/canceller.hpp"

#include <algorithm>
#include <stdexcept>

#include "mmtag/dsp/estimators.hpp"

namespace mmtag::ap {

namespace {

/// DC-blocker pole of the dc_notch and mean_subtract modes.
constexpr double notch_pole = 0.999;

} // namespace

self_interference_canceller::self_interference_canceller(const config& cfg)
    : cfg_(cfg), notch_(notch_pole)
{
    if (!(cfg.training_fraction > 0.0 && cfg.training_fraction < 1.0)) {
        throw std::invalid_argument("canceller: training_fraction must be in (0, 1)");
    }
    if (!(cfg.training_skip >= 0.0 && cfg.training_skip + cfg.training_fraction < 1.0)) {
        throw std::invalid_argument("canceller: training skip+fraction must fit in the window");
    }
    if (!(cfg.tail_fraction > 0.0 && cfg.tail_fraction < 0.5)) {
        throw std::invalid_argument("canceller: tail_fraction must be in (0, 0.5)");
    }
}

cvec self_interference_canceller::process(std::span<const cf64> baseband)
{
    if (baseband.empty()) return {};
    const double input_power = dsp::mean_power(baseband);

    cvec out;
    switch (cfg_.mode) {
    case cancellation_mode::off:
        out.assign(baseband.begin(), baseband.end());
        break;
    case cancellation_mode::dc_notch:
        out = notch_.process(baseband);
        break;
    case cancellation_mode::mean_subtract:
        out = dsp::remove_mean(baseband);
        out = notch_.process(out);
        break;
    case cancellation_mode::background_subtract: {
        const std::size_t skip = static_cast<std::size_t>(
            cfg_.training_skip * static_cast<double>(baseband.size()));
        const std::size_t training = std::max<std::size_t>(
            1, static_cast<std::size_t>(cfg_.training_fraction *
                                        static_cast<double>(baseband.size())));
        const std::size_t head_end = std::min(skip + training, baseband.size());
        cf64 head{};
        for (std::size_t i = skip; i < head_end; ++i) head += baseband[i];
        head /= static_cast<double>(head_end - skip);

        // The tag is also quiet at the end of the capture (trailing guard),
        // so a second estimate there lets the canceller track slow drift of
        // the statics (TX phase noise on delayed clutter) linearly instead
        // of leaving it as residual.
        const std::size_t tail_len = std::max<std::size_t>(
            1, std::min(static_cast<std::size_t>(cfg_.tail_fraction *
                                                 static_cast<double>(baseband.size())),
                        baseband.size()));
        const std::size_t tail_start = baseband.size() - tail_len;
        cf64 tail{};
        for (std::size_t i = tail_start; i < baseband.size(); ++i) tail += baseband[i];
        tail /= static_cast<double>(tail_len);

        const double head_center = 0.5 * static_cast<double>(skip + head_end);
        const double tail_center =
            0.5 * static_cast<double>(tail_start + baseband.size());
        const double spread = std::max(tail_center - head_center, 1.0);
        background_ = head;
        out.reserve(baseband.size());
        for (std::size_t i = 0; i < baseband.size(); ++i) {
            const double t = (static_cast<double>(i) - head_center) / spread;
            const cf64 estimate = head + (tail - head) * t;
            out.push_back(baseband[i] - estimate);
        }
        break;
    }
    }

    const double output_power = dsp::mean_power(out);
    last_suppression_db_ = (input_power > 0.0 && output_power > 0.0)
                               ? to_db(output_power / input_power)
                               : 0.0;
    return out;
}

} // namespace mmtag::ap
