// The mmtag_sim commands. Each row of commands() names the flags its
// command reads; `mmtag_sim help` lists them.
#pragma once

#include <span>

#include "mmtag/cli/driver.hpp"

namespace mmtag::cli {

/// mmtag_sim's table: link, budget, network, inventory, faults, soak, scale
/// and sweep. Each command prints to stdout and returns its outcome: the exit
/// status and, for the Monte-Carlo ones, what the driver reports and writes.
[[nodiscard]] std::span<const command> commands();

/// mmtag_sim's front end: the driver over commands(). Bad input, and a run
/// with no argument, exit 1.
int dispatch(int argc, const char* const* argv);

} // namespace mmtag::cli
