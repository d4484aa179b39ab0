// mmtag_bench's side of the cli driver: the row each experiment gets in the
// table, and the one place for the banner, wall timing, the BENCH_<id>.json
// result file and the summary line. Plus the aligned-table/CSV printing the
// experiments share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mmtag/cli/driver.hpp"
#include "mmtag/runtime/result_writer.hpp"
#include "mmtag/runtime/sweep_runner.hpp"

namespace mmtag::bench {

/// What an experiment reads of its command line. The driver has already
/// rejected any flag its row does not list, so an unlisted flag reads as its
/// default here.
struct bench_options {
    const char* id = "";     ///< the experiment's id, for its result_writer
    const char* title = "";  ///< the experiment's title, likewise
    bool csv = false;        ///< machine-readable table on stdout
    std::string json_path;   ///< --json PATH; empty = bench/out/BENCH_<id>.json
    std::size_t jobs = 0;    ///< --jobs N parallel executors; 0 = auto
    std::uint64_t seed = 1;  ///< --seed S: base of the per-trial seeding scheme
    cli::option_set flags;   ///< the whole command line, experiment-only flags included
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

/// One row of mmtag_bench's table: `flags` are the flags the experiment
/// reads besides `--csv`, which every experiment takes. The row reads the
/// common flags, prints the banner, times `body`, writes the result file and
/// prints the summary line.
inline cli::command experiment(const char* id, const char* title,
                               measured (*body)(const bench_options&),
                               std::vector<std::string> flags = {})
{
    flags.insert(flags.begin(), "csv");
    return {id, title, std::move(flags), [=](const cli::option_set& options) {
        const bench_options opts{id, title, options.get_flag("csv"),
                                 options.get_string("json", ""), options.get_uint("jobs", 0),
                                 options.get_uint("seed", 1), options};
        if (!opts.csv) std::printf("\n=== %s: %s ===\n\n", id, title);

        const auto start = std::chrono::steady_clock::now();
        measured out = body(opts);
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
    }};
}

/// mmtag_bench's front end: the cli driver over `experiments`. Bad input
/// exits 2; no argument lists the table like `help`.
inline int run(int argc, const char* const* argv, std::span<const cli::command> experiments)
{
    return cli::run(argc, argv, experiments,
                    {.program = "mmtag_bench", .noun = "experiment", .bad_input_status = 2,
                     .no_argument_status = 0});
}

} // namespace mmtag::bench
