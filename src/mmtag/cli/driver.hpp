// The one front-end driver behind mmtag_sim and mmtag_bench: each passes a
// table with one row per command (or experiment). The driver also writes the
// end of every run once: the run flags, the trace session, the wall time, the
// runtime line, the result file with its "run" section, and the metrics
// snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mmtag/cli/options.hpp"
#include "mmtag/runtime/result_writer.hpp"

namespace mmtag::obs {
class metrics_registry;
} // namespace mmtag::obs

namespace mmtag::cli {

/// What the driver hands a row besides its command line: what it read of
/// the run flags. A flag the row does not list is never given, so it reads
/// as its default.
struct context {
    std::size_t jobs = 0;                      ///< --jobs N; 0: all cores
    obs::metrics_registry* metrics = nullptr;  ///< the run's registry under --metrics
};

/// What a row hands back to the driver.
struct outcome {
    int status = 0;                                 ///< the process exit status
    std::optional<runtime::json_value> document{};  ///< deterministic half of the result file
    std::size_t tasks = 0;                          ///< tasks the runtime line counts
    std::size_t jobs = 1;                           ///< executors actually used
    std::uint64_t events = 0;  ///< > 0 adds events/s to the runtime line
    double setup_s = 0.0;      ///< > 0 adds "set-up S s"; events/s leaves it out
};

/// One row of a front end's table.
struct command {
    std::string name;
    std::string summary;             ///< one line, shown by `help`
    std::vector<std::string> flags;  ///< every flag the row reads; no other is accepted
    std::function<outcome(const option_set&, const context&)> run;
};

/// What differs between the two front ends.
struct front_end {
    const char* program;     ///< named in the unknown-name error
    const char* noun;        ///< what a row is: "command" or "experiment"
    int bad_input_status;    ///< exit status of any rejected input
    int no_argument_status;  ///< exit status of a run with no argument
    /// Without --json a row's document goes to PREFIX<name>.json; nullptr:
    /// it is written only under --json.
    const char* default_json_prefix = nullptr;
};

/// `PROGRAM NAME [--flag value ...]`: runs row NAME of `table` and returns
/// its status. `help` prints the listing (per row: name, summary, flags) and
/// returns 0; no argument prints it and returns no_argument_status. An
/// unknown name, a malformed command line or a flag the row does not list
/// is rejected before the row runs; a std::invalid_argument out of the row
/// (a value it rejects) is rejected alike: one `error:` line on stderr, then
/// bad_input_status. Any other exception escapes.
///
/// Around a row the driver reads --jobs, --json, --metrics[=FILE], --trace
/// and --csv, traces the row under --trace and, for a row that lists
/// `jobs`, times it and prints the runtime line (not under --csv). It then
/// appends the "run" section (jobs, wall_s, trials_per_s, git, and profile
/// under --metrics) to the row's document and writes it, and prints or
/// writes the metrics snapshot under --metrics.
int run(int argc, const char* const* argv, std::span<const command> table,
        const front_end& front);

} // namespace mmtag::cli
