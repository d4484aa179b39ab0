#include "mmtag/scale/phy_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "mmtag/core/link_budget.hpp"
#include "mmtag/core/link_simulator.hpp"
#include "mmtag/core/metrics.hpp"
#include "mmtag/runtime/json_io.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

namespace mmtag::scale {

std::vector<double> phy_table_config::sinr_grid() const
{
    if (!(sinr_step_db > 0.0) || !(sinr_stop_db >= sinr_start_db)) {
        throw std::invalid_argument("phy_table: bad SINR grid");
    }
    std::vector<double> grid;
    // Index-based stepping keeps the grid exactly reproducible (no
    // accumulated floating-point drift between runs).
    const auto points = static_cast<std::size_t>(
                            std::floor((sinr_stop_db - sinr_start_db) / sinr_step_db +
                                       1e-9)) +
                        1;
    grid.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        grid.push_back(sinr_start_db + sinr_step_db * static_cast<double>(i));
    }
    return grid;
}

void enforce_non_increasing(std::vector<double>& values)
{
    // Pool-adjacent-violators for a non-increasing fit: whenever a value
    // rises, merge it with its left block and replace both with the block
    // mean, cascading left while the merged mean still violates.
    struct block {
        double sum;
        std::size_t count;
        [[nodiscard]] double mean() const { return sum / static_cast<double>(count); }
    };
    std::vector<block> blocks;
    blocks.reserve(values.size());
    for (const double v : values) {
        blocks.push_back({v, 1});
        while (blocks.size() > 1 &&
               blocks[blocks.size() - 2].mean() < blocks.back().mean()) {
            blocks[blocks.size() - 2].sum += blocks.back().sum;
            blocks[blocks.size() - 2].count += blocks.back().count;
            blocks.pop_back();
        }
    }
    std::size_t i = 0;
    for (const block& b : blocks) {
        for (std::size_t k = 0; k < b.count; ++k) values[i++] = b.mean();
    }
}

namespace {

constexpr const char* schema_name = "mmtag.phy_table/1";

std::uint64_t fnv1a64(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string hex16(std::uint64_t value)
{
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

/// The canonical parameter document: every field the measured curves depend
/// on, in fixed order. Its dump is what the fingerprint hashes, and what
/// load_or_generate compares byte-for-byte against the cached file.
runtime::json_value params_json(const phy_table_config& cfg)
{
    using runtime::json_value;
    const auto& s = cfg.scenario;
    auto scenario = json_value::object();
    scenario.set("tx_power_dbm", json_value::number(s.transmitter.tx_power_dbm));
    scenario.set("ap_tx_gain_dbi", json_value::number(s.ap_tx_gain_dbi));
    scenario.set("ap_rx_gain_dbi", json_value::number(s.ap_rx_gain_dbi));
    scenario.set("sample_rate_hz", json_value::number(s.sample_rate_hz));
    scenario.set("symbol_rate_hz", json_value::number(s.symbol_rate_hz));
    scenario.set("reflector",
                 json_value::string(s.reflector == core::reflector_kind::van_atta
                                        ? "van_atta"
                                        : "flat_plate"));
    scenario.set("elements", json_value::unsigned_integer(s.van_atta.element_count));
    scenario.set("line_loss_db", json_value::number(s.van_atta.line_loss_db));
    scenario.set("switch_loss_db",
                 json_value::number(s.modulator.rf_switch.insertion_loss_db));
    scenario.set("stub_loss_db", json_value::number(s.modulator.bank.stub_loss_db));
    scenario.set("tx_leakage_db", json_value::number(s.tx_leakage_db));
    scenario.set("clutter", json_value::unsigned_integer(s.clutter.size()));
    scenario.set("implementation_loss_db",
                 json_value::number(s.implementation_loss_db));
    scenario.set("rician_k_db", json_value::number(s.rician_k_db));
    scenario.set("rain_rate_mm_per_hr", json_value::number(s.rain_rate_mm_per_hr));

    auto ladder = json_value::array();
    for (const auto& option : ap::rate_table()) {
        auto entry = json_value::object();
        entry.set("modulation", json_value::string(phy::modulation_name(option.scheme)));
        entry.set("fec", json_value::string(phy::fec_mode_name(option.fec)));
        entry.set("required_snr_db", json_value::number(option.required_snr_db));
        ladder.push(std::move(entry));
    }

    auto params = json_value::object();
    params.set("scenario", std::move(scenario));
    params.set("sinr_start_db", json_value::number(cfg.sinr_start_db));
    params.set("sinr_stop_db", json_value::number(cfg.sinr_stop_db));
    params.set("sinr_step_db", json_value::number(cfg.sinr_step_db));
    params.set("frames_per_point", json_value::unsigned_integer(cfg.frames_per_point));
    params.set("payload_bytes", json_value::unsigned_integer(cfg.payload_bytes));
    params.set("seed", json_value::unsigned_integer(cfg.seed));
    params.set("rate_ladder", std::move(ladder));
    return params;
}

[[noreturn]] void reject(const std::string& what)
{
    throw simulation_error("phy_table: " + what);
}

} // namespace

std::string phy_table::fingerprint_of(const phy_table_config& cfg)
{
    return hex16(fnv1a64(params_json(cfg).dump()));
}

double phy_table::per(std::size_t mcs_index, double sinr_db) const
{
    if (mcs_index >= curves_.size()) reject("MCS index out of range");
    const curve& c = curves_[mcs_index];
    if (sinr_db <= c.sinr_db.front()) return c.per.front();
    if (sinr_db >= c.sinr_db.back()) return c.per.back();
    const auto it = std::upper_bound(c.sinr_db.begin(), c.sinr_db.end(), sinr_db);
    const auto hi = static_cast<std::size_t>(it - c.sinr_db.begin());
    const std::size_t lo = hi - 1;
    const double span = c.sinr_db[hi] - c.sinr_db[lo];
    const double t = span > 0.0 ? (sinr_db - c.sinr_db[lo]) / span : 0.0;
    return c.per[lo] + t * (c.per[hi] - c.per[lo]);
}

phy_table phy_table::generate(const phy_table_config& cfg, std::size_t jobs)
{
    const auto grid = cfg.sinr_grid();
    const auto& ladder = ap::rate_table();
    if (cfg.frames_per_point == 0) reject("frames_per_point must be >= 1");
    if (cfg.payload_bytes == 0) reject("payload_bytes must be >= 1");

    // Invert SINR -> distance once per grid point: the range at which the
    // analytic budget predicts exactly that SNR (the budget tracks the
    // sample-accurate simulator within fractions of a dB).
    const core::link_budget budget(cfg.scenario);
    std::vector<double> distances(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        distances[i] = budget.max_range_m(grid[i]);
        if (!(distances[i] > 0.0)) reject("SINR grid point unreachable");
    }

    // Chunked trials so the pool load-balances inside a grid point; chunk
    // sizes depend only on the config, so results stay jobs-invariant.
    constexpr std::size_t chunks = 4;
    runtime::sweep_options options;
    options.jobs = jobs;
    options.base_seed = cfg.seed;
    options.trials_per_point = std::min(chunks, cfg.frames_per_point);
    const std::size_t base_frames = cfg.frames_per_point / options.trials_per_point;
    const std::size_t extra_frames = cfg.frames_per_point % options.trials_per_point;

    const auto outcome = runtime::run_sweep<core::link_report>(
        options, ladder.size() * grid.size(),
        [&](std::size_t point, std::size_t chunk, std::uint64_t seed) {
            const std::size_t mcs = point / grid.size();
            const std::size_t sinr = point % grid.size();
            core::system_config scenario = cfg.scenario;
            scenario.distance_m = distances[sinr];
            scenario.seed = seed;
            core::link_simulator sim(scenario);
            sim.set_rate(ladder[mcs]);
            const std::size_t frames = base_frames + (chunk < extra_frames ? 1 : 0);
            return sim.run_trials(frames, cfg.payload_bytes);
        });

    phy_table table;
    table.cfg_ = cfg;
    table.fingerprint_ = fingerprint_of(cfg);
    table.curves_.resize(ladder.size());
    for (std::size_t mcs = 0; mcs < ladder.size(); ++mcs) {
        curve& c = table.curves_[mcs];
        c.sinr_db = grid;
        c.per.resize(grid.size());
        c.frames.resize(grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto& report = outcome.points[mcs * grid.size() + i].aggregate;
            c.per[i] = report.frames > 0 ? report.per : 1.0;
            c.frames[i] = report.frames;
        }
        enforce_non_increasing(c.per);
    }
    return table;
}

runtime::json_value phy_table::to_json() const
{
    using runtime::json_value;
    auto doc = runtime::schema_object(schema_name);
    doc.set("fingerprint", json_value::string(fingerprint_));
    doc.set("params", params_json(cfg_));
    const auto& ladder = ap::rate_table();
    auto curves = json_value::array();
    for (std::size_t mcs = 0; mcs < curves_.size(); ++mcs) {
        const curve& c = curves_[mcs];
        auto entry = json_value::object();
        entry.set("modulation", json_value::string(phy::modulation_name(ladder[mcs].scheme)));
        entry.set("fec", json_value::string(phy::fec_mode_name(ladder[mcs].fec)));
        auto sinr = json_value::array();
        for (const double s : c.sinr_db) sinr.push(json_value::number(s));
        entry.set("sinr_db", std::move(sinr));
        auto per = json_value::array();
        for (const double p : c.per) per.push(json_value::number(p));
        entry.set("per", std::move(per));
        auto frames = json_value::array();
        for (const std::uint64_t f : c.frames) {
            frames.push(json_value::unsigned_integer(f));
        }
        entry.set("frames", std::move(frames));
        curves.push(std::move(entry));
    }
    doc.set("curves", std::move(curves));
    return doc;
}

phy_table phy_table::from_json(const runtime::json_value& doc,
                               const phy_table_config& cfg)
{
    using runtime::json_value;
    const json_value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() || schema->as_string() != schema_name) {
        reject(std::string("unsupported schema (want ") + schema_name + ")");
    }
    // The persisted params are only a digest of the scenario, so the caller
    // must supply the config it expects; the document is validated against
    // it byte-for-byte (which subsumes the fingerprint comparison).
    const json_value* fingerprint = doc.find("fingerprint");
    if (fingerprint == nullptr || !fingerprint->is_string()) reject("missing fingerprint");
    if (fingerprint->as_string() != fingerprint_of(cfg)) {
        reject("fingerprint does not match the requested build parameters");
    }
    const json_value* params = doc.find("params");
    if (params == nullptr || params->dump() != params_json(cfg).dump()) {
        reject("params do not match the requested build parameters");
    }
    const json_value* curves = doc.find("curves");
    if (curves == nullptr || !curves->is_array()) reject("missing curves");
    const auto& ladder = ap::rate_table();
    if (curves->size() != ladder.size()) reject("curve count != rate ladder size");

    phy_table table;
    table.cfg_ = cfg;
    table.fingerprint_ = fingerprint->as_string();
    table.curves_.resize(ladder.size());
    for (std::size_t mcs = 0; mcs < ladder.size(); ++mcs) {
        const json_value& entry = curves->at(mcs);
        curve& c = table.curves_[mcs];
        const json_value* modulation = entry.find("modulation");
        const json_value* fec = entry.find("fec");
        if (modulation == nullptr || !modulation->is_string() ||
            modulation->as_string() != phy::modulation_name(ladder[mcs].scheme) ||
            fec == nullptr || !fec->is_string() ||
            fec->as_string() != phy::fec_mode_name(ladder[mcs].fec)) {
            reject("curve order does not match the rate ladder");
        }
        const json_value* sinr = entry.find("sinr_db");
        const json_value* per = entry.find("per");
        const json_value* frames = entry.find("frames");
        if (sinr == nullptr || !sinr->is_array() || per == nullptr ||
            !per->is_array() || frames == nullptr || !frames->is_array() ||
            sinr->size() < 2 || sinr->size() != per->size() ||
            sinr->size() != frames->size()) {
            reject("malformed curve arrays");
        }
        for (std::size_t i = 0; i < sinr->size(); ++i) {
            c.sinr_db.push_back(sinr->at(i).as_number());
            c.per.push_back(per->at(i).as_number());
            c.frames.push_back(frames->at(i).as_uint());
            if (i > 0 && !(c.sinr_db[i] > c.sinr_db[i - 1])) {
                reject("SINR grid not strictly ascending");
            }
            if (!(c.per[i] >= 0.0 && c.per[i] <= 1.0)) reject("PER outside [0, 1]");
            if (i > 0 && c.per[i] > c.per[i - 1] + 1e-12) {
                reject("curve for " + phy::modulation_name(ladder[mcs].scheme) +
                       " is not monotone non-increasing in SINR");
            }
        }
    }
    return table;
}

phy_table::cache_result phy_table::load_or_generate(const phy_table_config& cfg,
                                                    std::size_t jobs,
                                                    const std::string& cache_dir)
{
    const std::string fingerprint = fingerprint_of(cfg);
    const std::string path = cache_dir + "/phy_table_" + fingerprint + ".json";

    std::string reason;
    if (const auto text = runtime::read_text_file(path)) {
        if (const auto doc = runtime::parse_json(*text)) {
            try {
                return {from_json(*doc, cfg), true, path};
            } catch (const simulation_error& error) {
                reason = std::string("invalid cache: ") + error.what();
            }
        } else {
            reason = "unparseable cache";
        }
    } else {
        reason = "no cached table";
    }

    const std::size_t total_frames =
        ap::rate_table().size() * cfg.sinr_grid().size() * cfg.frames_per_point;
    std::fprintf(stderr,
                 "phy_table: %s at %s — regenerating (%zu sample-accurate frames)\n",
                 reason.c_str(), path.c_str(), total_frames);
    phy_table table = generate(cfg, jobs);
    runtime::write_text_file(path, table.to_json().dump(2));
    return {std::move(table), false, path};
}

} // namespace mmtag::scale
