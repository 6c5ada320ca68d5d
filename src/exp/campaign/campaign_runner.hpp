// Supervised parallel execution of a CampaignSpec.
//
// The runner is the robustness backbone for paper-scale sweeps: it
// expands the spec's grid, executes it on a bounded worker pool, and
// supervises every run. The unit of work is the trace, one (profile,
// seed, scenario) cell: as in the paper's Section III, each trace is
// simulated once and every model item of the cell is scored against
// it, so an item's attempts, failure and error are its trace's.
//
//   * deadline    — each attempt runs under a SimWatchdog carrying the
//                   spec's event/stall budgets plus a per-attempt
//                   wall-clock deadline;
//   * taxonomy    — failures are classified transient (watchdog trip,
//                   blackout stall, wall deadline, salvageable trace)
//                   or permanent (invalid profile, NaN params) — see
//                   failure_taxonomy.hpp;
//   * retry       — transient failures retry with capped exponential
//                   backoff and deterministic seed perturbation;
//   * checkpoint  — every settled item is journaled (JSONL, spec order,
//                   flushed) so an interrupted campaign resumes by
//                   replaying the journal and skipping completed items;
//   * determinism — results and journal bytes are identical at any
//                   worker count, and a kill-then-resume run equals an
//                   uninterrupted one (provided no wall-deadline trips,
//                   which are inherently load-dependent);
//   * timeline    — while the flight recorder is armed, each ladder is
//                   one `campaign.trace` span holding a `campaign.attempt`
//                   span per simulation and a `campaign.backoff` span per
//                   wait, and every journal line is one
//                   `campaign.journal_append` span (arg = line bytes
//                   without the newline). The registry keeps the
//                   aggregate attempt/backoff histograms and journal
//                   totals, and each item only its ladder's wall time.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign/campaign_journal.hpp"
#include "exp/campaign/campaign_spec.hpp"
#include "exp/campaign/failure_taxonomy.hpp"
#include "exp/hour_trace_experiment.hpp"
#include "exp/run_report.hpp"
#include "exp/short_trace_experiment.hpp"

namespace pftk::exp::campaign {

/// What one successful simulation of a trace produced. Metrics are
/// always filled; each item's `metrics.predicted` is taken from
/// `predicted` by its model. The experiment payloads are filled by the
/// built-in executor (hour or short kind) and power the table/figure
/// drivers.
struct TraceOutcome {
  ItemMetrics metrics;
  /// Predicted packets over the run, indexed like model::all_model_kinds.
  std::array<double, model::all_model_kinds.size()> predicted{};
  std::optional<HourTraceResult> hour;
  std::optional<ShortTraceRecord> short_trace;
};

/// Terminal state of one item.
enum class ItemStatus {
  kOk,
  kFailedTransient,  ///< transient failure, retries exhausted
  kFailedPermanent,  ///< permanent failure, recorded once
  kNotRun,           ///< abandoned by graceful shutdown; never journaled,
                     ///< so a --resume re-runs it from scratch
};

/// One item's supervised result, in spec order.
struct CampaignItemResult {
  CampaignItem item;
  ItemStatus status = ItemStatus::kOk;
  FailureKind failure_kind = FailureKind::kNone;
  int attempts = 0;
  std::string error;
  bool from_journal = false;  ///< replayed from a checkpoint, not re-run
  ItemMetrics metrics;
  /// Payloads, shared by every item of the trace (absent for
  /// journal-replayed or failed items).
  std::optional<HourTraceResult> hour;
  std::optional<ShortTraceRecord> short_trace;
  /// Wall time of the trace's supervised ladder, from its first attempt
  /// to its settlement, backoffs included (0 for a replayed item).
  /// Diagnostics only.
  struct {
    double total_seconds = 0.0;
  } span;

  [[nodiscard]] bool ok() const noexcept { return status == ItemStatus::kOk; }
};

/// Whole-campaign outcome.
struct CampaignResult {
  std::vector<CampaignItemResult> items;  ///< spec expansion order
  RunReport report;  ///< aggregate over all items, incl. metrics
  std::size_t resumed = 0;                ///< items satisfied by the journal
  obs::CheckpointIoStats journal_io;      ///< checkpoint-journal I/O totals
  bool interrupted = false;  ///< a stop request cut the campaign short
  std::size_t not_run = 0;   ///< items abandoned by the stop (resumable)

  [[nodiscard]] bool all_ok() const noexcept { return report.all_ok(); }

  /// One-line failure-taxonomy roll-up for CLI footers / exit messages,
  /// e.g. "3/20 items lost: transient 2 (watchdog 2), permanent 1
  /// (invalid 1)". Empty when everything succeeded.
  [[nodiscard]] std::string taxonomy_summary() const;
};

/// Executes one attempt of one trace, one simulation, with the given
/// (possibly perturbed) seed; throws to report failure. `first` is the
/// trace's first item: its profile, seed and scenario are the trace's.
using TraceExecutor =
    std::function<TraceOutcome(const CampaignItem& first, std::uint64_t seed)>;

/// Runner knobs. The executor and sleep hooks are injectable for tests
/// (simulate failure sequences; capture backoff delays instead of
/// actually sleeping).
struct CampaignRunnerOptions {
  int threads = 1;
  std::string journal_path;  ///< empty = no checkpointing
  bool resume = false;       ///< replay an existing journal first
  TraceExecutor executor;    ///< empty = built-in simulation executor
  std::function<void(std::chrono::milliseconds)> sleep;  ///< empty = real sleep
  /// fsync the journal after every N committed records (robust durable
  /// appender). 1 = every record durable before the next commit (the
  /// default, and what the crash-consistency guarantee assumes); 0 =
  /// only on close.
  std::uint64_t fsync_every = 1;
  /// Cooperative stop flag (e.g. ShutdownGuard::stop_flag()). When it
  /// goes true, workers stop claiming traces, in-flight retry ladders
  /// are abandoned after the current attempt (every pending item of the
  /// trace settles kNotRun and is *not* journaled), and the result
  /// reports `interrupted`.
  const std::atomic<bool>* stop = nullptr;
};

/// The built-in executor: runs the trace's simulation per spec.kind
/// under the spec's watchdog + deadline and returns metrics, every
/// model's prediction and the experiment payload. Exposed for tests and
/// custom drivers.
[[nodiscard]] TraceOutcome run_campaign_trace(const CampaignSpec& spec,
                                              const CampaignItem& first,
                                              std::uint64_t seed);

/// Expands, supervises, and journals one campaign.
class CampaignRunner {
 public:
  /// @throws std::invalid_argument on an invalid spec or options.
  explicit CampaignRunner(CampaignSpec spec, CampaignRunnerOptions options = {});

  /// Runs (or resumes) the campaign to completion. Item failures are
  /// *not* exceptions — they land in the result; only infrastructure
  /// faults (unwritable journal, journal/spec mismatch) throw.
  [[nodiscard]] CampaignResult run();

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }

 private:
  CampaignSpec spec_;
  CampaignRunnerOptions options_;
};

}  // namespace pftk::exp::campaign
