// Process exit-code taxonomy — one contract for every pftk binary and
// every supervised worker.
//
// The CLI has always followed the table below implicitly; the supervisor
// makes it load-bearing: a parent that forks workers must classify each
// wait status into "did its job", "was asked to stop", or "died", because
// the restart policy branches on exactly that distinction. Keeping the
// codes and the classifier in one header stops the contract from
// drifting between the CLI, the supervisor, tests, and CI greps.
//
//   0   success
//   1   runtime failure (I/O error, accounting-identity violation, ...)
//   2   usage error (bad flags / parameters)
//   3   interrupted — graceful drain after SIGINT/SIGTERM
//   4   supervisor circuit breaker: restart budget exhausted, gave up
//   5   indeterminate — a check could not be decided (e.g. `pftk prof`
//       on a recording that dropped spans)
//   86  injected crash (robust::kCrashExitCode, chaos harness)
//   130 hard exit on the second shutdown signal
#pragma once

#include <string>

namespace pftk::robust {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;
/// The supervisor's restart-budget circuit breaker tripped: more than
/// `restart_budget` worker restarts inside `restart_window_s`. A durable
/// post-mortem snapshot is written before exiting with this code.
inline constexpr int kExitSupervisorGaveUp = 4;
/// A check could not be decided either way: `pftk prof` on a serve
/// recording whose rings dropped spans, so its counts are lower bounds.
inline constexpr int kExitIndeterminate = 5;
// kCrashExitCode = 86 lives in failpoint.hpp (the chaos harness owns it).
inline constexpr int kExitHardSignal = 130;

/// How a supervised worker left, as far as the restart policy cares.
enum class WorkerExitClass {
  kClean,        ///< exit 0 — finished its work; not restarted
  kInterrupted,  ///< exit 3 — graceful drain (e.g. forwarded SIGTERM)
  kCrash,        ///< killed by a signal, or exit 86 (injected crash)
  kError,        ///< any other nonzero exit — treated as restartable
};

/// A classified wait status (from waitpid).
struct WorkerExit {
  WorkerExitClass cls = WorkerExitClass::kClean;
  bool signaled = false;     ///< true when terminated by a signal
  int code_or_signal = 0;    ///< exit code, or the signal number

  /// "exit 0 (clean)", "signal 11 (crash)", "exit 86 (crash)", ...
  [[nodiscard]] std::string describe() const;
};

/// Maps a raw waitpid status to the taxonomy above. A status that is
/// neither WIFEXITED nor WIFSIGNALED (stop/continue — the supervisor
/// never requests those) classifies as kError.
[[nodiscard]] WorkerExit classify_wait_status(int wait_status) noexcept;

/// Stable lowercase token: "clean", "interrupted", "crash", "error".
[[nodiscard]] const char* worker_exit_class_name(WorkerExitClass cls) noexcept;

}  // namespace pftk::robust
