// Bounded model checker over the simulated TCP connection.
//
// The explorer enumerates EVERY resolution of the nondeterminism in a
// small, finite transfer (1 flow, a handful of packets): per-packet
// drop/deliver on the data path (optionally the ACK path), the rotation
// order of overlapping fault specs, and the dispatch order of
// same-timestamp events — each surfaced as an explicit choice point
// through the ChoiceSource seams in sim/ (OracleLoss,
// FaultInjector::set_order_oracle, EventQueue::set_tie_breaker).
//
// Search is depth-first over choice sequences (SimGrid DFSExplorer
// style): a branch IS its choice sequence; the driver extends a prefix
// with default decisions and backtracks by incrementing the deepest
// incrementable choice. Every branch runs with the live
// InvariantChecker armed plus end-of-branch assumption checks derived
// from the paper's model (accounting identities, cumulative-ACK
// ordering, receiver-window cap, E[W] >= 1 flooring and model
// evaluability at the observed loss rate — see MODELS.md).
//
// A job resumes each branch from a snapshot instead of re-running it
// from t = 0. It keeps one live sim::Connection and a DFS stack of its
// snapshots (sim/connection.hpp), one per event that recorded a fresh
// choice, taken at the event boundary before it: the queue's inspector
// saves there while a choice budget is left, and the first fresh choice
// of the event keeps the save. A bumped branch restores the snapshot of
// the event that made the bumped choice, with the choice cursor and the
// loss and tie budgets of that boundary, and runs on from there;
// choices inside TcpRenoSender::start() belong to the unstarted
// connection, saved before the first run. A snapshot restores only into
// the connection that took it, so the callbacks that capture it stay
// valid. Stateless re-execution from t = 0 remains in three places: the
// frontier expansion, each job's first branch and replay(), which stays
// the oracle that re-validates counterexamples.
//
// A branch ends at an event boundary, never by unwinding. Once the
// transfer completes, the queue's inspector requests a stop; a prune or
// the frontier's split-depth cut stops the ScriptedChoices, which
// requests one too. run_until then returns after the current event, with
// the clock at that event's time (what the end-of-branch digest hashes).
// A branch whose source stopped is dropped unchecked: no end checks, no
// digest, and nothing raised in the rest of its last event counts (that
// rest runs on default answers no search enumerates). Exceptions are for
// errors only: InvariantViolation, PropertyViolation and
// ChoiceDivergence.
//
// Visited-state pruning: at each fresh choice point the live connection
// is digested (mc/digest.hpp); a state revisited with no more remaining
// depth than before is pruned. Because digests exclude counters, runs
// that differ only in commuting histories collapse — a sleep-set style
// reduction through state equality. Pruning can only suppress work;
// violations are always re-validated by replay.
//
// Determinism across thread counts: the tree is first expanded
// single-threaded to a FIXED split depth (independent of -j); each
// frontier prefix becomes one job explored with its own visited table,
// and results are merged in job order. The reported state count is a
// pure function of the config — identical across runs and -j values. A
// violation in job k stops the jobs after k and leaves them out of the
// merge, so a violating run's counterexample and counters are too. A
// max_states cut is too: job k stops once the expansion's states, those
// of the jobs before it (running ones count what they have so far) and
// its own reach the budget, and the merge cuts each job at the branch
// where -j 1 stops.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mc/choice.hpp"
#include "mc/digest.hpp"

namespace pftk::sim {
class Connection;
}

namespace pftk::mc {

/// The explored scenario plus search budgets. Everything here is echoed
/// into counterexample files so a trace is self-contained.
struct ExploreConfig {
  // --- scenario (the documented small config) ---
  std::uint32_t packets = 6;     ///< finite transfer length, packets
  double window = 8.0;           ///< advertised window Wm, packets
  int ack_every = 2;             ///< receiver's b (delayed ACKs)
  double one_way_delay = 0.05;   ///< seconds, both directions, no jitter
  double min_rto = 1.0;          ///< RTO floor == initial RTO (exact timers)
  double time_cap = 600.0;       ///< simulated-seconds backstop per branch
  std::string fault_schedule;    ///< forward-path faults ("" = none)

  // --- nondeterminism switches ---
  bool ack_loss = false;         ///< also branch on per-ACK loss
  std::uint32_t loss_choices = 8;  ///< loss decisions branched per branch;
                                   ///< beyond this the oracle delivers
                                   ///< (a model bound — branches stay finite)
  std::uint32_t tie_width = 0;     ///< 0 = FIFO ties; >= 2 branches on tie
                                   ///< order, offering at most this many
  std::uint32_t tie_choices = 0;   ///< tie decisions branched per branch

  // --- search budgets ---
  std::uint32_t depth = 64;        ///< max recorded choices per branch;
                                   ///< deeper branches are truncated
                                   ///< (enumeration reported incomplete)
  std::uint64_t max_states = 0;    ///< stop after this many states (0 = off)
  bool prune_visited = true;       ///< visited-state reduction on/off

  // --- parallelism (fixed partition => -j-independent counts) ---
  std::uint32_t split_depth = 4;   ///< frontier depth for job partitioning
  int threads = 1;

  std::uint64_t seed = 1;          ///< master seed (the harness draws no
                                   ///< randomness unless faults need it)

  /// @throws std::invalid_argument naming the offending field.
  void validate() const;

  /// One-line "key=value ..." rendering (reports, artifacts).
  [[nodiscard]] std::string describe() const;
};

/// Search counters. For a clean, complete run these are a pure function
/// of the config (asserted by tests across runs and thread counts).
struct ExploreStats {
  std::uint64_t states = 0;     ///< fresh choice points explored
  std::uint64_t branches = 0;   ///< branch executions (terminals + pruned)
  std::uint64_t terminals = 0;  ///< branches run to completion/time cap
  std::uint64_t pruned = 0;     ///< branches abandoned at a visited state
  std::uint64_t truncated = 0;  ///< branches cut by the depth budget
  std::uint64_t violations = 0;

  ExploreStats& operator+=(const ExploreStats& other) noexcept;
};

/// One discovered violation with everything needed to replay it.
struct Violation {
  std::vector<Choice> path;  ///< full choice sequence of the branch
  std::string check;         ///< stable token (e.g. "cwnd_floor")
  std::string message;       ///< human diagnostic
  McDigest digest;           ///< end-state digest (replay must match)
};

struct ExploreResult {
  ExploreStats stats;
  std::vector<Violation> violations;
  bool complete = false;     ///< full enumeration within every budget
  bool interrupted = false;  ///< external stop flag went up
  std::size_t jobs = 0;      ///< frontier prefixes explored in parallel
};

/// A failed end-of-branch assumption or user property.
class PropertyViolation : public std::runtime_error {
 public:
  PropertyViolation(std::string check, const std::string& detail)
      : std::runtime_error("property violated [" + check + "]: " + detail),
        check_(std::move(check)) {}

  [[nodiscard]] const std::string& check() const noexcept { return check_; }

 private:
  std::string check_;
};

/// What an end-of-branch property sees.
struct BranchContext {
  const sim::Connection& conn;
  const ExploreConfig& config;
  bool completed = false;        ///< the finite transfer finished in time
  std::span<const Choice> path;  ///< the branch's choices (what replay takes)
};

/// End-of-branch check; throws PropertyViolation to report.
using Property = std::function<void(const BranchContext&)>;

/// Result of re-executing a recorded trace.
struct ReplayOutcome {
  bool diverged = false;  ///< the run did not follow the trace
  bool violated = false;  ///< a check fired (the expected outcome)
  std::string check;
  std::string message;  ///< violation or divergence diagnostic
  McDigest digest;      ///< end-state digest (valid when !diverged)
};

class Explorer {
 public:
  /// @throws std::invalid_argument on an invalid config.
  explicit Explorer(ExploreConfig config);

  /// Registers an extra end-of-branch property, checked on every branch
  /// after the built-in assumption checks. Properties must be
  /// deterministic functions of the branch state (they run again during
  /// replay, on the replaying Explorer).
  void add_property(std::string name, Property property);

  /// Explores the whole bounded tree. `stop` (optional) is polled
  /// between branches; raising it yields interrupted=true. Exploration
  /// halts at the first violation.
  [[nodiscard]] ExploreResult run(const std::atomic<bool>* stop = nullptr);

  /// Re-executes one recorded choice sequence under strict verification
  /// and reports what the branch did.
  [[nodiscard]] ReplayOutcome replay(const std::vector<Choice>& choices);

  [[nodiscard]] const ExploreConfig& config() const noexcept { return config_; }

 private:
  struct BranchEnd {
    bool completed = false;
    bool violated = false;
    std::string check;
    std::string message;
    McDigest digest;
  };
  struct SubtreeOutcome {
    ExploreStats stats;
    std::vector<Violation> violations;
    bool incomplete = false;
    bool interrupted = false;
    /// With max_states: the stats after each branch that found states.
    std::vector<ExploreStats> checkpoints;
  };
  /// The max_states budget of the jobs (see the file comment).
  struct StateBudget {
    std::uint64_t max = 0;
    std::uint64_t expansion = 0;                    ///< the expansion's states
    std::vector<std::atomic<std::uint64_t>> jobs;   ///< each job's states so far
    /// Whether `job` with `own` states of its own must stop.
    [[nodiscard]] bool spent(std::size_t job, std::uint64_t own) const noexcept;
  };
  /// A connection wired to a ChoiceSource within the budgets (explorer.cpp).
  struct Rig;
  struct ExpansionOutcome {
    ExploreStats stats;
    std::vector<Violation> violations;
    std::vector<std::vector<Choice>> jobs;
    bool incomplete = false;
    bool interrupted = false;
  };

  /// Runs the rig's connection from where it stands to the time cap and
  /// checks the branch's end; nullopt when the source stopped it (a prune
  /// or a frontier cut), whose end is not checked. `path` is the source's
  /// path, which grows as the branch runs.
  std::optional<BranchEnd> run_branch(Rig& rig, const std::vector<Choice>& path);
  ExpansionOutcome expand_frontier(const std::atomic<bool>* stop);
  SubtreeOutcome explore_subtree(std::size_t job, const std::vector<Choice>& root,
                                 const std::atomic<bool>* stop,
                                 std::atomic<std::size_t>& first_violation,
                                 StateBudget& budget);
  /// Cuts each job's outcome where -j 1 stops for max_states.
  void cut_at_budget(std::uint64_t seen, std::vector<SubtreeOutcome>& outcomes) const;

  ExploreConfig config_;
  std::vector<std::pair<std::string, Property>> properties_;
};

}  // namespace pftk::mc
