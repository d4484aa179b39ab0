#include "mmtag/fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::fault {

namespace {

double db_to_amplitude(double db) { return std::pow(10.0, db / 20.0); }

} // namespace

bool impairment::any() const
{
    return tag_amplitude < 1.0 || carrier_amplitude < 1.0 || lo_offset_hz != 0.0 ||
           interferer_active() || !tag_powered;
}

void impairment::apply_to_carrier(cvec& rf) const
{
    if (carrier_amplitude == 1.0) return;
    for (auto& s : rf) s *= carrier_amplitude;
}

void impairment::apply_at_antenna(cvec& antenna, double tag_return, double tx_power_w,
                                  double symbol_rate_hz, double sample_rate_hz) const
{
    if (interferer_active()) {
        const double amplitude =
            tag_return * std::sqrt(tx_power_w) * db_to_amplitude(interferer_rel_db);
        const double step = two_pi * 0.35 * symbol_rate_hz / sample_rate_hz;
        for (std::size_t i = 0; i < antenna.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            antenna[i] += amplitude * cf64{std::cos(phase), std::sin(phase)};
        }
    }
    if (lo_offset_hz != 0.0) {
        const double step = two_pi * lo_offset_hz / sample_rate_hz;
        for (std::size_t i = 0; i < antenna.size(); ++i) {
            const double phase = step * static_cast<double>(i);
            antenna[i] *= cf64{std::cos(phase), std::sin(phase)};
        }
    }
}

fault_injector::fault_injector(fault_schedule schedule)
    : schedule_(std::move(schedule))
{
}

void fault_injector::attach_metrics(obs::metrics_registry* metrics)
{
    metrics_ = metrics;
    kind_counters_ = {};
    impaired_windows_ = nullptr;
    lo_relocks_ = nullptr;
}

obs::counter& fault_injector::cached_counter(obs::counter*& slot, const char* name) const
{
    if (slot == nullptr) slot = &metrics_->get_counter(std::string("fault/") + name);
    return *slot;
}

impairment fault_injector::at(double start_s, double duration_s) const
{
    impairment out;
    double blockage_db = 0.0;
    double dropout_db = 0.0;
    schedule_.visit_active(start_s, start_s + duration_s, [&](const fault_event& event) {
        switch (event.kind) {
        case fault_kind::blockage:
            blockage_db = std::max(blockage_db, event.magnitude);
            break;
        case fault_kind::carrier_dropout:
            dropout_db = std::max(dropout_db, event.magnitude);
            break;
        case fault_kind::interferer:
            out.interferer_rel_db = std::max(out.interferer_rel_db, event.magnitude);
            break;
        case fault_kind::brownout:
            out.tag_powered = false;
            break;
        case fault_kind::lo_step:
            break; // persistent: handled below from the full history
        }
        if (metrics_ != nullptr) {
            cached_counter(kind_counters_[static_cast<std::size_t>(event.kind)],
                           fault_kind_name(event.kind))
                .add();
        }
    });
    if (blockage_db > 0.0) out.tag_amplitude = db_to_amplitude(-blockage_db);
    if (dropout_db > 0.0) out.carrier_amplitude = db_to_amplitude(-dropout_db);
    out.lo_offset_hz = lo_offset_hz(start_s + duration_s);

    if (out.any()) {
        if (metrics_ != nullptr) cached_counter(impaired_windows_, "impaired_windows").add();
        if (obs::tracer::active()) {
            char args[96];
            std::snprintf(args, sizeof args,
                          "{\"start_s\": %.6f, \"duration_s\": %.6f}", start_s,
                          duration_s);
            obs::trace_instant("fault.window", "fault", args);
        }
    }
    return out;
}

double fault_injector::lo_offset_hz(double time_s) const
{
    // Latest step that has fired and has not been cleared by a re-lock. The
    // synthesizer holds the detuned frequency, so duration is irrelevant.
    // Steps are sorted by start: if the latest fired step was cleared, so
    // was every earlier one.
    if (!schedule_.has_lo_steps()) return 0.0;
    const auto& events = schedule_.events();
    auto it = std::upper_bound(
        events.begin(), events.end(), time_s,
        [](double t, const fault_event& event) { return t < event.start_s; });
    while (it != events.begin()) {
        --it;
        if (it->kind != fault_kind::lo_step) continue;
        return it->start_s > lo_cleared_until_s_ ? it->magnitude : 0.0;
    }
    return 0.0;
}

void fault_injector::clear_lo_steps(double time_s)
{
    lo_cleared_until_s_ = std::max(lo_cleared_until_s_, time_s);
    if (metrics_ != nullptr) cached_counter(lo_relocks_, "lo_relocks").add();
    if (obs::tracer::active()) {
        char args[48];
        std::snprintf(args, sizeof args, "{\"time_s\": %.6f}", time_s);
        obs::trace_instant("fault.lo_relock", "fault", args);
    }
}

} // namespace mmtag::fault
