#include "mmtag/cli/driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "mmtag/io.hpp"
#include "mmtag/obs/metrics_registry.hpp"
#include "mmtag/obs/trace.hpp"

namespace mmtag::cli {

namespace {

/// `count` per second of `seconds`, or 0 when no time elapsed: every
/// tasks/s, trials/s and events/s either front end reports.
double per_second(std::uint64_t count, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

/// Writes `text` to `path` and says so, unless `quiet`.
void write_file(const std::string& path, const std::string& text, bool quiet)
{
    if (io::write_text_file(path, text) && !quiet) std::printf("wrote %s\n", path.c_str());
}

/// Traces the row when --trace named a file: starts on construction; stop()
/// (or the destructor, when the row throws) stops and writes the trace.
class trace_session {
public:
    explicit trace_session(std::string path) : path_(std::move(path))
    {
        if (!path_.empty()) obs::tracer::start();
    }
    ~trace_session() { stop(); }

    trace_session(const trace_session&) = delete;
    trace_session& operator=(const trace_session&) = delete;

    void stop()
    {
        if (path_.empty()) return;
        obs::tracer::stop();
        if (obs::tracer::write(path_)) std::printf("wrote %s\n", path_.c_str());
        path_.clear();
    }

private:
    std::string path_;
};

/// `  runtime: [set-up S s, ]N tasks in W s wall (J jobs, R tasks/s[, E
/// events/s])`. Events/s is over the time after set-up.
std::string runtime_line(const outcome& out, double wall_s)
{
    char buffer[256];
    std::string line = "  runtime: ";
    if (out.setup_s > 0.0) {
        std::snprintf(buffer, sizeof buffer, "set-up %.3f s, ", out.setup_s);
        line += buffer;
    }
    std::snprintf(buffer, sizeof buffer, "%zu tasks in %.3f s wall (%zu jobs, %.1f tasks/s",
                  out.tasks, wall_s, out.jobs, per_second(out.tasks, wall_s));
    line += buffer;
    if (out.events > 0) {
        std::snprintf(buffer, sizeof buffer, ", %.0f events/s",
                      per_second(out.events, wall_s - out.setup_s));
        line += buffer;
    }
    return line + ")";
}

/// One `NAME  summary` line per row, then the row's flags, indented to the
/// summary column and wrapped before column 80.
std::string listing(std::span<const command> table)
{
    std::size_t width = 0;
    for (const auto& row : table) width = std::max(width, row.name.size());
    const std::string indent(width + 2, ' ');
    std::string out;
    for (const auto& row : table) {
        out += row.name + std::string(indent.size() - row.name.size(), ' ') + row.summary + '\n';
        std::string line = indent;
        for (const auto& flag : row.flags) {
            if (line.size() > indent.size() && line.size() + 3 + flag.size() > 79) {
                out += line + '\n';
                line = indent;
            }
            line += (line.size() > indent.size() ? " --" : "--") + flag;
        }
        if (line.size() > indent.size()) out += line + '\n';
    }
    return out;
}

/// Runs `row` and writes the end of its run (see run() in driver.hpp).
int run_row(const command& row, const option_set& options, const front_end& front)
{
    const bool quiet = options.get_flag("csv");
    std::string json_path = options.get_string("json", "");
    // A bare `--metrics` prints the snapshot; `--metrics=FILE` writes it.
    const std::optional<std::string> metrics_path = options.get_flag_or_string("metrics");
    obs::metrics_registry registry;
    const context ctx{static_cast<std::size_t>(options.get_uint("jobs", 0)),
                      metrics_path ? &registry : nullptr};

    trace_session trace(options.get_string("trace", ""));
    const auto start = std::chrono::steady_clock::now();
    outcome out = row.run(options, ctx);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    trace.stop();

    const bool timed = std::find(row.flags.begin(), row.flags.end(), "jobs") != row.flags.end();
    if (timed && !quiet) std::printf("%s\n", runtime_line(out, wall_s).c_str());
    if (json_path.empty() && front.default_json_prefix != nullptr) {
        json_path = front.default_json_prefix + row.name + ".json";
    }
    if (out.document && !json_path.empty()) {
        auto run = runtime::json_value::object();
        run.set("jobs", runtime::json_value::unsigned_integer(out.jobs));
        run.set("wall_s", runtime::json_value::number(wall_s));
        run.set("trials_per_s", runtime::json_value::number(per_second(out.tasks, wall_s)));
        run.set("git", runtime::json_value::string(runtime::git_describe()));
        if (metrics_path) run.set("profile", registry.to_json(obs::metric_view::timing));
        out.document->set("run", std::move(run));
        write_file(json_path, out.document->dump(2), quiet);
    }
    if (metrics_path) {
        const std::string snapshot = registry.to_json_string(obs::metric_view::deterministic, 2);
        if (metrics_path->empty()) {
            std::printf("metrics:\n%s\n", snapshot.c_str());
        } else {
            write_file(*metrics_path, snapshot, false);
        }
    }
    return out.status;
}

} // namespace

int run(int argc, const char* const* argv, std::span<const command> table,
        const front_end& front)
{
    if (argc < 2 || std::string(argv[1]) == "help") {
        std::printf("%s", listing(table).c_str());
        return argc < 2 ? front.no_argument_status : 0;
    }
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const command& entry) { return entry.name == argv[1]; });
    try {
        if (row == table.end()) {
            throw std::invalid_argument(std::string("unknown ") + front.noun + " '" + argv[1] +
                                        "' (" + front.program + " help lists them)");
        }
        const option_set options = option_set::parse(argc, argv);
        // Nothing is read yet, so unconsumed() is every flag given.
        for (const auto& key : options.unconsumed()) {
            if (std::find(row->flags.begin(), row->flags.end(), key) == row->flags.end()) {
                throw std::invalid_argument("unknown option --" + key);
            }
        }
        return run_row(*row, options, front);
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return front.bad_input_status;
    }
}

} // namespace mmtag::cli
