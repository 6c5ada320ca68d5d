// Process exit-code taxonomy — one contract for every pftk binary.
//
// Keeping the codes in one header stops the contract from drifting
// between the CLI, tests, and CI greps.
//
//   0   success
//   1   runtime failure (I/O error, accounting-identity violation, ...)
//   2   usage error (bad flags / parameters)
//   3   interrupted — graceful drain after SIGINT/SIGTERM
//   4   retired; never reused
//   5   indeterminate — a check could not be decided (e.g. `pftk prof`
//       on a recording that dropped spans)
//   86  injected crash (robust::kCrashExitCode, chaos harness)
//   130 hard exit on the second shutdown signal
#pragma once

namespace pftk::robust {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;
/// A check could not be decided either way: `pftk prof` on a serve
/// recording whose rings dropped spans, so its counts are lower bounds.
inline constexpr int kExitIndeterminate = 5;
// kCrashExitCode = 86 lives in failpoint.hpp (the chaos harness owns it).
inline constexpr int kExitHardSignal = 130;

}  // namespace pftk::robust
