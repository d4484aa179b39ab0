// Shared plumbing for the experiment harnesses: the common flag parser
// (--csv/--json/--jobs/--seed, on the CLI's cli::option_set) and
// aligned-table/CSV printing.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmtag/cli/options.hpp"

namespace mmtag::bench {

/// The flags every experiment binary accepts. A bench names its own extras
/// (`--fault-seed`, ...) to parse() (via run() below) and reads them with
/// extra_u64. Malformed input, or a flag that is neither common nor a named
/// extra, prints one `error:` line and exits 2, so bench mains stay
/// one-liners.
struct bench_options {
    bool csv = false;        ///< machine-readable table on stdout
    std::string json_path;   ///< --json PATH; empty = bench/out/BENCH_<id>.json
    std::size_t jobs = 0;    ///< --jobs N parallel executors; 0 = auto
    std::uint64_t seed = 1;  ///< --seed S: base of the per-trial seeding scheme
    cli::option_set flags;   ///< the whole command line, extras included

    static bench_options parse(int argc, char** argv,
                               std::initializer_list<const char*> extras = {})
    {
        bench_options opts;
        or_exit([&] {
            opts.flags = cli::option_set::parse_flags(argc, argv);
            opts.csv = opts.flags.get_flag("csv");
            opts.json_path = opts.flags.get_string("json", "");
            opts.jobs = static_cast<std::size_t>(opts.flags.get_uint("jobs", 0));
            opts.seed = opts.flags.get_uint("seed", 1);
            for (const auto& key : opts.flags.unconsumed()) {
                const bool named = std::find(extras.begin(), extras.end(), key) !=
                                   extras.end();
                if (!named) throw std::invalid_argument("unknown option --" + key);
            }
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

/// A bench main: parses the flags (naming the bench's `extras`) and runs
/// `experiment` on them. A std::invalid_argument out of the experiment is a
/// well-formed value the library rejects (R22 `--rounds 0`); like a malformed
/// flag it prints one `error:` line and exits 2. Any other exception escapes.
template <typename Experiment>
int run(int argc, char** argv, Experiment&& experiment,
        std::initializer_list<const char*> extras = {})
{
    const auto opts = bench_options::parse(argc, argv, extras);
    try {
        return experiment(opts);
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
}

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

inline void banner(const char* id, const char* title, bool csv)
{
    if (csv) return;
    std::printf("\n=== %s: %s ===\n\n", id, title);
}

} // namespace mmtag::bench
