#include "mmtag/dsp/dc_blocker.hpp"

#include <stdexcept>

namespace mmtag::dsp {

dc_blocker::dc_blocker(double pole) : pole_(pole)
{
    if (!(pole > 0.0 && pole < 1.0)) {
        throw std::invalid_argument("dc_blocker: pole must be in (0, 1)");
    }
}

cf64 dc_blocker::process(cf64 input)
{
    const cf64 output = input - previous_input_ + pole_ * previous_output_;
    previous_input_ = input;
    previous_output_ = output;
    return output;
}

cvec dc_blocker::process(std::span<const cf64> input)
{
    cvec out;
    out.reserve(input.size());
    for (cf64 x : input) out.push_back(process(x));
    return out;
}

cvec remove_mean(std::span<const cf64> input)
{
    if (input.empty()) return {};
    cf64 mean{};
    for (cf64 x : input) mean += x;
    mean /= static_cast<double>(input.size());
    cvec out;
    out.reserve(input.size());
    for (cf64 x : input) out.push_back(x - mean);
    return out;
}

} // namespace mmtag::dsp
