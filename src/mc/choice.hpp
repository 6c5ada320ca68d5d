// Choice points for the bounded model checker.
//
// The explorer treats every source of nondeterminism in a small
// simulation as an explicit, enumerable decision: per-packet loss on the
// data and ACK paths, the order in which overlapping fault specs absorb
// a packet, and the dispatch order of same-timestamp events. Each
// decision flows through a ChoiceSource, so one simulation harness
// serves three masters:
//
//   * ScriptedChoices replays a recorded prefix and extends it with
//     default (index 0) decisions, recording arity as it goes — the
//     search driver backtracks by incrementing the deepest incrementable
//     choice (SimGrid-style DFS over a deterministic program) and runs
//     the new prefix either from the root or, restart()ed at a cursor,
//     from a snapshot of the simulation taken at the event boundary
//     before that choice. A kPrune verdict ends the branch without
//     unwinding: the source stops (answering 0 and recording nothing
//     from then on) and asks the event queue to return after the current
//     event.
//   * ReplayChoices replays a complete recorded path and *verifies* it:
//     any kind/arity mismatch means the simulation did not unfold the
//     way it did when the trace was recorded, which is exactly the
//     determinism bug replay exists to catch.
//
// A choice is (kind, chosen, arity). Kinds carry one-letter tokens so a
// whole path serializes compactly into a counterexample file
// ("F1 A0 T2/3 O1/2" = drop a data packet, deliver an ACK, pick the 3rd
// of 3 tied events, rotate 2 overlapping faults by 1).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pftk::sim {
class EventQueue;
}

namespace pftk::mc {

/// What kind of nondeterminism a choice point resolves.
enum class ChoiceKind : std::uint8_t {
  kForwardLoss,  ///< drop/deliver one offered data segment (arity 2)
  kAckLoss,      ///< drop/deliver one offered ACK (arity 2)
  kTieBreak,     ///< which of N same-timestamp events dispatches first
  kFaultOrder,   ///< rotation of N simultaneously-active fault specs
};

/// One-letter serialization token for a kind ('F', 'A', 'T', 'O').
[[nodiscard]] char choice_kind_token(ChoiceKind kind) noexcept;

/// Inverse of choice_kind_token.
/// @throws std::invalid_argument on an unknown token.
[[nodiscard]] ChoiceKind choice_kind_from_token(char token);

/// One resolved decision: `chosen` out of `arity` alternatives.
struct Choice {
  ChoiceKind kind = ChoiceKind::kForwardLoss;
  std::uint16_t chosen = 0;
  std::uint16_t arity = 2;

  friend bool operator==(const Choice& a, const Choice& b) noexcept {
    return a.kind == b.kind && a.chosen == b.chosen && a.arity == b.arity;
  }
  friend bool operator!=(const Choice& a, const Choice& b) noexcept {
    return !(a == b);
  }
};

/// Compact one-line rendering of a path ("F1 A0 T2/3"); loss kinds omit
/// the "/2" since their arity is fixed.
[[nodiscard]] std::string encode_choices(const std::vector<Choice>& path);

/// Inverse of encode_choices ("" decodes to an empty path).
/// @throws std::invalid_argument on a malformed token.
[[nodiscard]] std::vector<Choice> decode_choices(const std::string& text);

/// The recorded reality disagrees with the re-execution: a kind or arity
/// mismatch, an exhausted trace, or an out-of-range chosen index. For
/// replay this is the verdict "trace does not reproduce".
class ChoiceDivergence : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Verdict of the search hook at a *fresh* (first-visited) choice point.
enum class NodeVerdict {
  kExplore,   ///< count the state and enumerate all alternatives
  kPrune,     ///< abandon the branch here (a covered state, or the
              ///< frontier's split depth): the source stops, nothing of
              ///< the branch's end is checked
  kTruncate,  ///< depth budget hit: finish the branch on default choices
              ///< without recording (the subtree is NOT enumerated)
};

/// Where branch decisions come from during one simulated branch.
class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;

  /// Resolves one choice point with `arity` >= 2 alternatives; returns
  /// the index in [0, arity) to take.
  virtual std::size_t choose(ChoiceKind kind, std::size_t arity) = 0;

  /// True once the source has abandoned its branch (a kPrune verdict):
  /// the rest of the branch is discarded, whatever it does.
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

 protected:
  bool stopped_ = false;
};

/// DFS driver's source: replays a prefix, then extends with index-0
/// decisions, consulting a hook once per fresh node.
class ScriptedChoices final : public ChoiceSource {
 public:
  /// Called at each fresh choice point with (kind, arity, depth) where
  /// depth == number of choices recorded so far. The hook typically
  /// digests the live simulation state here (it is invoked synchronously
  /// from within the simulation callback that hit the choice point).
  using FreshNodeHook =
      std::function<NodeVerdict(ChoiceKind kind, std::size_t arity, std::size_t depth)>;

  explicit ScriptedChoices(std::vector<Choice> prefix);

  /// Starts a new branch that follows `prefix` and then extends it, with
  /// the first `cursor` choices of `prefix` already made: the simulation
  /// was restored to the point where they had been. Clears stopped() and
  /// truncated(); keeps the hook.
  void restart(const std::vector<Choice>& prefix, std::size_t cursor);

  /// Installs the fresh-node hook (no hook == always kExplore) and the
  /// simulation's queue, which a kPrune verdict asks to stop. Set after
  /// the simulation is constructed so the hook can capture it.
  void set_hook(FreshNodeHook hook, sim::EventQueue* queue = nullptr) {
    hook_ = std::move(hook);
    queue_ = queue;
  }

  /// After a kPrune verdict the source is stopped(): that choice and
  /// every later one answer 0, record nothing and skip the hook.
  /// @throws ChoiceDivergence if the prefix disagrees with re-execution.
  std::size_t choose(ChoiceKind kind, std::size_t arity) override;

  /// The full path taken: the verified prefix plus recorded extensions.
  [[nodiscard]] const std::vector<Choice>& path() const noexcept { return path_; }

  /// True once the depth budget truncated the branch (its unexplored
  /// subtree makes the enumeration incomplete).
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  [[nodiscard]] std::size_t prefix_length() const noexcept { return prefix_; }

  /// Choices made so far in this branch, replayed or recorded.
  [[nodiscard]] std::size_t cursor() const noexcept { return cursor_; }

 private:
  std::vector<Choice> path_;
  std::size_t prefix_;
  std::size_t cursor_ = 0;
  FreshNodeHook hook_;
  sim::EventQueue* queue_ = nullptr;
  bool truncated_ = false;
};

/// Counterexample replayer: every decision must match the recorded
/// trace exactly, or the replay is declared divergent.
class ReplayChoices final : public ChoiceSource {
 public:
  explicit ReplayChoices(std::vector<Choice> trace);

  /// @throws ChoiceDivergence on kind/arity mismatch, chosen >= arity,
  ///         or more choice points than the trace recorded.
  std::size_t choose(ChoiceKind kind, std::size_t arity) override;

  /// True when every recorded choice was consumed (required for a
  /// faithful replay — leftovers mean the runs diverged).
  [[nodiscard]] bool done() const noexcept { return cursor_ == trace_.size(); }

  [[nodiscard]] std::size_t consumed() const noexcept { return cursor_; }

 private:
  std::vector<Choice> trace_;
  std::size_t cursor_ = 0;
};

}  // namespace pftk::mc
