// Deterministic failpoint injection for persistence paths.
//
// A failpoint is a named site in the code (e.g. "journal.append") where a
// fault can be injected on demand: an I/O error, a short write, a full
// disk, a delay, or a hard process crash. Failpoints are armed from a
// parseable spec (CLI `--failpoints`), fire deterministically on the
// N-th evaluation, and are *one-shot*: each armed spec fires exactly once
// and then stays quiet, so a fixed spec yields a fixed fault sequence.
//
// Cost contract: when nothing is armed — the only state in production —
// `failpoint()` is a single relaxed atomic load and a predictable branch,
// and the run is byte-identical to a build without the calls (enforced by
// the CI `cmp` check). Registry state is process-wide: a fork-based chaos
// child inherits the armed spec, the parent stays disarmed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pftk::robust {

/// What an armed failpoint does when it fires.
enum class FailpointAction {
  kOff,         ///< not fired (sentinel for a pass-through evaluation)
  kError,       ///< injected I/O error (generic)
  kShortWrite,  ///< write only `arg` bytes of the payload, then fail
  kEnospc,      ///< injected "no space left on device"
  kDelay,       ///< sleep `arg` milliseconds, then proceed normally
  kCrash,       ///< write `arg` bytes (where applicable), then _Exit
};

/// Result of evaluating a failpoint at a site. `action == kOff` means
/// "not fired — proceed normally".
struct FailpointHit {
  FailpointAction action = FailpointAction::kOff;
  std::uint64_t arg = 0;

  [[nodiscard]] bool fired() const noexcept {
    return action != FailpointAction::kOff;
  }
};

/// One parsed arm request: `name:after=N:action=A[:arg=K]`. `after` is
/// the number of evaluations that pass untouched before the trigger
/// (after=0 fires on the first evaluation). `arg` is action-specific:
/// bytes for short_write/crash, milliseconds for delay.
struct FailpointSpec {
  std::string name;
  std::uint64_t after = 0;
  FailpointAction action = FailpointAction::kError;
  std::uint64_t arg = 0;

  /// Canonical round-trippable rendering of the spec.
  [[nodiscard]] std::string describe() const;

  /// Parses one `name:key=value:...` clause.
  /// @throws std::invalid_argument on grammar errors.
  [[nodiscard]] static FailpointSpec parse_one(std::string_view text);
};

/// Exit code used by `action=crash` so the chaos harness can tell an
/// injected crash apart from any organic failure.
inline constexpr int kCrashExitCode = 86;

/// Process-wide registry of armed failpoints.
class FailpointRegistry {
 public:
  static FailpointRegistry& instance();

  /// Arms one spec. Multiple specs may target the same name; each fires
  /// independently (in arming order once eligible).
  void arm(const FailpointSpec& spec);

  /// Parses and arms a `;`-separated spec list. Empty input is a no-op.
  /// Any name is accepted (tests arm sites of their own).
  /// @throws std::invalid_argument on grammar errors.
  void arm_specs(std::string_view text);

  /// Parses a spec list as arm_specs does, arming nothing, and requires
  /// every name to be a known site: a misspelled site would otherwise arm
  /// a failpoint that no code evaluates.
  /// @throws std::invalid_argument on grammar errors or an unknown site.
  void check_specs(std::string_view text) const;

  /// Disarms everything and resets all hit counters.
  void disarm_all();

  /// Number of armed specs that have not fired yet.
  [[nodiscard]] std::size_t armed_count() const;

  /// How many times a spec with this name has fired.
  [[nodiscard]] std::uint64_t fired_count(std::string_view name) const;

  /// How many times this site has been evaluated while anything was
  /// armed (diagnostics for chaos matrices; 0 when never armed).
  [[nodiscard]] std::uint64_t evaluation_count(std::string_view name) const;

  /// Slow path of `failpoint()`: counts the evaluation and returns the
  /// first eligible un-fired spec for `name`, consuming it.
  [[nodiscard]] FailpointHit evaluate(std::string_view name);

  /// Records a failpoint site so `pftk faultsim --list-failpoints` can
  /// enumerate every place a fault can be injected. Idempotent (the
  /// first description for a name wins); call sites register at
  /// construction/first use. The built-in sites are pre-seeded.
  void register_site(std::string_view name, std::string_view description);

  /// Every known site, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> known_sites() const;

 private:
  FailpointRegistry() = default;
};

namespace detail {
/// Count of armed, un-fired specs. The hot-path gate.
extern std::atomic<int> g_armed;
}  // namespace detail

/// Evaluates the named failpoint. Disarmed cost: one relaxed load.
inline FailpointHit failpoint(std::string_view name) {
  if (detail::g_armed.load(std::memory_order_relaxed) == 0) {
    return {};
  }
  return FailpointRegistry::instance().evaluate(name);
}

/// True while any armed spec has not fired yet. Parallel paths consult
/// this once up front and run serially while it holds (the trace reader
/// parses as one chunk on the calling thread), so every armed spec keeps
/// its deterministic firing order.
inline bool any_failpoint_armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Simulated crash: flushes nothing, skips atexit/static destructors —
/// whatever bytes reached the kernel are what a real crash would leave.
[[noreturn]] void crash_now();

/// Stable lowercase token ("error", "short_write", "enospc", "delay",
/// "crash"; "off" for the sentinel).
[[nodiscard]] std::string_view failpoint_action_name(FailpointAction a) noexcept;

/// Inverse of failpoint_action_name.
/// @throws std::invalid_argument on an unrecognized token.
[[nodiscard]] FailpointAction failpoint_action_from_name(std::string_view name);

}  // namespace pftk::robust
