// The driver behind `mmtag_bench ID [--flags]`: one place for flag parsing
// (on the CLI's cli::option_set), the banner, wall timing, the
// BENCH_<id>.json result file and the summary line. Plus the aligned-table/CSV
// printing the experiments share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/cli/options.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

namespace mmtag::bench {

/// One experiment's command line. `--csv` is common to every experiment;
/// any other flag is accepted only when the experiment lists it (see
/// experiment::flags). Malformed input, or a flag the experiment does not
/// list, prints one `error:` line and exits 2 before the experiment runs.
struct bench_options {
    const char* id = "";     ///< the experiment's id, for its result_writer
    const char* title = "";  ///< the experiment's title, likewise
    bool csv = false;        ///< machine-readable table on stdout
    std::string json_path;   ///< --json PATH; empty = bench/out/BENCH_<id>.json
    std::size_t jobs = 0;    ///< --jobs N parallel executors; 0 = auto
    std::uint64_t seed = 1;  ///< --seed S: base of the per-trial seeding scheme
    cli::option_set flags;   ///< the whole command line, experiment-only flags included

    static bench_options parse(int argc, char** argv, const std::vector<std::string>& reads)
    {
        bench_options opts;
        or_exit([&] {
            opts.flags = cli::option_set::parse_flags(argc, argv);
            const auto listed = [&](const std::string& key) {
                return std::find(reads.begin(), reads.end(), key) != reads.end();
            };
            // Nothing is read yet, so unconsumed() is every key given.
            for (const auto& key : opts.flags.unconsumed()) {
                if (key != "csv" && !listed(key)) {
                    throw std::invalid_argument("unknown option --" + key);
                }
            }
            opts.csv = opts.flags.get_flag("csv");
            if (listed("json")) opts.json_path = opts.flags.get_string("json", "");
            if (listed("jobs")) opts.jobs = opts.flags.get_uint("jobs", 0);
            if (listed("seed")) opts.seed = opts.flags.get_uint("seed", 1);
        });
        return opts;
    }

    [[nodiscard]] std::uint64_t extra_u64(const std::string& key,
                                          std::uint64_t fallback) const
    {
        std::uint64_t value = fallback;
        or_exit([&] { value = flags.get_uint(key, fallback); });
        return value;
    }

private:
    template <typename F>
    static void or_exit(F&& read)
    {
        try {
            read();
        } catch (const std::exception& error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            std::exit(2);
        }
    }
};

/// Simple column-aligned table with an optional CSV mode.
class table {
public:
    table(std::vector<std::string> headers, bool csv)
        : headers_(std::move(headers)), csv_(csv)
    {
    }

    void add_row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

    void print() const
    {
        if (csv_) {
            print_delimited(",");
            return;
        }
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
        for (const auto& row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
                widths[c] = std::max(widths[c], row[c].size());
            }
        }
        print_row(headers_, widths);
        std::string rule;
        for (std::size_t c = 0; c < widths.size(); ++c) {
            rule += std::string(widths[c], '-');
            if (c + 1 < widths.size()) rule += "--";
        }
        std::printf("%s\n", rule.c_str());
        for (const auto& row : rows_) print_row(row, widths);
    }

private:
    void print_delimited(const char* sep) const
    {
        auto emit = [&](const std::vector<std::string>& row) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                std::printf("%s%s", row[c].c_str(), c + 1 < row.size() ? sep : "");
            }
            std::printf("\n");
        };
        emit(headers_);
        for (const auto& row : rows_) emit(row);
    }

    void print_row(const std::vector<std::string>& row,
                   const std::vector<std::size_t>& widths) const
    {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s%s", static_cast<int>(widths[c]), row[c].c_str(),
                        c + 1 < row.size() ? "  " : "");
        }
        std::printf("\n");
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    bool csv_;
};

inline std::string fmt(const char* format, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, format, value);
    return buffer;
}

/// What an experiment hands back to the driver. An experiment that writes a
/// result file returns its result_writer with the point, task and job counts
/// the summary line reports; the others return only their exit status.
struct measured {
    std::optional<runtime::result_writer> results{};
    std::size_t points = 0;
    std::size_t tasks = 0;
    std::size_t jobs = 1;
    std::uint64_t events = 0;  ///< > 0 adds an events/s figure to the summary
    int status = 0;            ///< the process exit status
};

/// One row of the experiment table: `flags` are the flags it reads besides
/// `--csv` (jobs, seed, json and its own, such as fault-seed).
struct experiment {
    const char* id;
    const char* title;
    std::vector<std::string> flags;
    measured (*run)(const bench_options&);
};

/// `mmtag_bench ID [--flags]`: runs experiment ID from `experiments`. No argument
/// or `help` lists one `ID  title` line per experiment. An unknown ID exits 2.
/// The driver prints the banner, times the run, writes the result file and
/// prints the summary line. A std::invalid_argument out of the experiment is
/// a well-formed value the library rejects (R22 `--rounds 0`); like a
/// malformed flag it prints one `error:` line and exits 2. Any other
/// exception escapes.
inline int run(int argc, char** argv, std::span<const experiment> experiments)
{
    const std::string id = argc > 1 ? argv[1] : "help";
    if (id == "help") {
        for (const auto& entry : experiments) std::printf("%-3s  %s\n", entry.id, entry.title);
        return 0;
    }
    const auto entry = std::find_if(experiments.begin(), experiments.end(),
                                    [&](const experiment& e) { return id == e.id; });
    if (entry == experiments.end()) {
        std::fprintf(stderr, "error: unknown experiment '%s' (mmtag_bench help lists them)\n",
                     id.c_str());
        return 2;
    }
    auto opts = bench_options::parse(argc - 1, argv + 1, entry->flags);
    opts.id = entry->id;
    opts.title = entry->title;
    if (!opts.csv) std::printf("\n=== %s: %s ===\n\n", entry->id, entry->title);

    const auto start = std::chrono::steady_clock::now();
    measured out;
    try {
        out = entry->run(opts);
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!out.results) return out.status;

    const auto written = out.results->write(opts.json_path, wall_s, out.jobs,
                                            runtime::per_second(out.tasks, wall_s));
    if (!opts.csv) {
        std::string summary = runtime::summary_line(out.points, out.tasks, wall_s, out.jobs);
        if (out.events > 0) {
            summary += fmt(", %.0f events/s", runtime::per_second(out.events, wall_s));
        }
        std::printf("\n%s\n", summary.c_str());
        if (!written.empty()) std::printf("wrote %s\n", written.c_str());
    }
    return out.status;
}

} // namespace mmtag::bench
