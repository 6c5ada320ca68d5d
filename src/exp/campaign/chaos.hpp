// Crash-recovery chaos harness for the campaign journal path.
//
// Proves the crash-consistency contract end to end: for every crash
// failpoint on the journal path, a fixed-seed campaign that is killed
// mid-write (fork-based in-process child, `_Exit` at the failpoint —
// leaving a genuine torn tail on disk) and then `--resume`d produces a
// journal and RunReport byte-identical to a run that was never
// interrupted. Powered by `pftk chaos` in the CLI and
// tests/test_crash_recovery.cpp in CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign/campaign_runner.hpp"
#include "exp/campaign/campaign_spec.hpp"

namespace pftk::exp::campaign {

/// Outcome of one crash-resume-compare case.
struct ChaosCaseResult {
  std::string failpoint;        ///< the armed spec, e.g. "journal.append:after=2:action=crash"
  bool crashed = false;         ///< child exited with robust::kCrashExitCode
  int child_exit = -1;          ///< raw child exit code (diagnostics)
  bool journal_identical = false;  ///< post-resume journal == reference bytes
  bool report_identical = false;   ///< post-resume report digest == reference
  std::string detail;           ///< first divergence / error, empty when ok

  /// A case passes when the resumed run converged to the reference; a
  /// crash-action spec must additionally have actually crashed.
  [[nodiscard]] bool ok() const noexcept {
    const bool crash_expected =
        failpoint.find("action=crash") != std::string::npos;
    return journal_identical && report_identical &&
           (!crash_expected || crashed);
  }
};

/// Whole-matrix outcome.
struct ChaosReport {
  std::string reference_digest;  ///< deterministic digest of the clean run
  std::uint64_t reference_journal_bytes = 0;
  std::vector<ChaosCaseResult> cases;

  [[nodiscard]] bool all_ok() const noexcept {
    for (const ChaosCaseResult& c : cases) {
      if (!c.ok()) {
        return false;
      }
    }
    return !cases.empty();
  }
};

struct ChaosOptions {
  std::string work_dir;  ///< required: journals and scratch live here
  int threads = 1;
  std::uint64_t fsync_every = 1;
  /// Failpoint specs to run, one case each. Empty = the default journal
  /// crash matrix (default_journal_crash_failpoints).
  std::vector<std::string> failpoints;
  /// Injectable per-trace executor (tests); empty = the built-in
  /// simulation.
  TraceExecutor executor;
};

/// The default crash matrix: kill mid-append (torn tails of 0 and a few
/// bytes) and at the fsync, at the first record and mid-campaign.
[[nodiscard]] std::vector<std::string> default_journal_crash_failpoints(
    std::size_t item_count);

/// Deterministic item-level digest of a campaign result (statuses,
/// attempts, keys — no wall-clock fields), for report comparison.
[[nodiscard]] std::string campaign_digest(const CampaignResult& result);

/// Runs the matrix: one clean reference run, then per failpoint a forked
/// child that arms the spec and runs the same campaign (crashing at the
/// failpoint), followed by a disarmed `--resume` in the parent and a
/// byte/digest comparison against the reference.
/// @throws std::invalid_argument on an empty work_dir;
///         robust::IoError / std::runtime_error on harness I/O faults.
[[nodiscard]] ChaosReport run_chaos_matrix(const CampaignSpec& spec,
                                           const ChaosOptions& options);

/// Renders a per-case table + verdict for CLI output.
[[nodiscard]] std::string describe(const ChaosReport& report);

}  // namespace pftk::exp::campaign
