// Self-tests of the benchmark itself: reproducible inputs and chain runs,
// seed sensitivity, and the compute contract's result.
#pragma once

#include <string>

namespace e2e {

/// Runs every self-test, printing one line per check; returns the process
/// exit code (0 when all hold).
int run_selftests(const std::string& db_root);

}  // namespace e2e
