#pragma once

// The dlbsim command implementations, separated from the executable so they
// can be driven by unit tests. Every command writes human-readable output
// to `out`, diagnostics to `err`, and returns a process exit code; usage()
// lists the commands and their flags. The flag groups and writers they
// share with dlbd live in cli/flags.hpp.

#include <ostream>
#include <string>
#include <vector>

namespace dlb::cli {

/// Dispatches `args[0]` as the sub-command. Returns 0 on success, 1 on a
/// runtime failure, 2 on a usage error.
int run_command(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// Full usage text.
[[nodiscard]] std::string usage();

}  // namespace dlb::cli
