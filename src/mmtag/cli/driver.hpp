// The one front-end driver behind mmtag_sim and mmtag_bench: each passes a
// table with one row per command (or experiment).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mmtag/cli/options.hpp"

namespace mmtag::cli {

/// One row of a front end's table.
struct command {
    std::string name;
    std::string summary;             ///< one line, shown by `help`
    std::vector<std::string> flags;  ///< every flag the row reads; no other is accepted
    std::function<int(const option_set&)> run;  ///< returns the exit status
};

/// What differs between the two front ends.
struct front_end {
    const char* program;     ///< named in the unknown-name error
    const char* noun;        ///< what a row is: "command" or "experiment"
    int bad_input_status;    ///< exit status of any rejected input
    int no_argument_status;  ///< exit status of a run with no argument
};

/// `PROGRAM NAME [--flag value ...]`: runs row NAME of `table` and returns
/// its status. `help` prints the listing (per row: name, summary, flags) and
/// returns 0; no argument prints it and returns no_argument_status. An
/// unknown name, a malformed command line or a flag the row does not list
/// is rejected before the row runs; a std::invalid_argument out of the row
/// (a value it rejects) is rejected alike: one `error:` line on stderr, then
/// bad_input_status. Any other exception escapes.
int run(int argc, const char* const* argv, std::span<const command> table,
        const front_end& front);

} // namespace mmtag::cli
