// mmtag_bench's side of the cli driver: the row each experiment gets in the
// table (the driver times it, prints the runtime line and writes the
// BENCH_<id>.json result file), plus the aligned-table/CSV printing the
// experiments share.
#pragma once

#include <algorithm>
#include <cstdio>
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

/// One row of mmtag_bench's table: `flags` are the flags the experiment
/// reads besides `--csv`, which every experiment takes. The row prints the
/// banner and runs `body`; an experiment that writes a result file returns
/// its document with the task and job counts the runtime line reports.
inline cli::command experiment(const char* id, const char* title,
                               cli::outcome (*body)(const bench_options&),
                               std::vector<std::string> flags = {})
{
    flags.insert(flags.begin(), "csv");
    return {id, title, std::move(flags), [=](const cli::option_set& options,
                                             const cli::context& ctx) {
        const bench_options opts{id, title, options.get_flag("csv"), ctx.jobs,
                                 options.get_uint("seed", 1), options};
        if (!opts.csv) std::printf("\n=== %s: %s ===\n\n", id, title);
        return body(opts);
    }};
}

/// mmtag_bench's front end: the cli driver over `experiments`. Bad input
/// exits 2; no argument lists the table like `help`. Without --json a result
/// file goes to bench/out/BENCH_<id>.json.
inline int run(int argc, const char* const* argv, std::span<const cli::command> experiments)
{
    return cli::run(argc, argv, experiments,
                    {.program = "mmtag_bench", .noun = "experiment", .bad_input_status = 2,
                     .no_argument_status = 0, .default_json_prefix = "bench/out/BENCH_"});
}

} // namespace mmtag::bench
