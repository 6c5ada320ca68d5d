// Structured per-connection event timeline.
//
// The paper's analysis (Tables 1-2, Figs. 5-8) hinges on *why* a flow
// saw its send rate: which loss indications were triple-duplicate ACKs
// (TD periods, Section II-A) vs. timeouts (TO periods, II-B), how deep
// the exponential backoff went, when the receiver window clamped the
// sender (II-C). ConnEventTrace records exactly those state transitions
// as they happen, stamped with *simulated* time — so a fixed seed yields
// a byte-identical event stream, and the TD/TO breakdown printed by
// `pftk obs summarize` can be cross-checked against the sender's own
// counters exactly.
//
// Storage is a fixed-capacity ring: recording is an index increment and
// a 32-byte store, cheap enough to leave compiled into the hot path
// behind a null-pointer guard. When the ring wraps, the oldest events
// are overwritten and counted in dropped() — never silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/sim_time.hpp"

namespace pftk::obs {

/// Everything the layers emit. The paper-taxonomy mapping is documented
/// per kind (and in MODELS.md): TD loss indications are exactly the
/// kFastRetransmit events; TO sequences are the kRtoFire events with
/// backoff level 1; deeper levels are the exponential-backoff ladder of
/// Section II-B.
enum class ConnEventKind : std::uint8_t {
  kSlowStartEnter,     ///< cwnd fell below ssthresh (start, or after RTO)
  kCongAvoidEnter,     ///< cwnd crossed ssthresh: linear-growth regime
  kFastRetransmit,     ///< dup-ACK threshold hit — one TD loss indication
  kFastRecoveryEnter,  ///< Reno/NewReno window-inflation phase began
  kFastRecoveryExit,   ///< recovery ended (new ACK / full ACK)
  kRtoFire,            ///< retransmission timer expired; value = backoff level
  kSsthreshUpdate,     ///< ssthresh re-estimated on a loss indication
  kRwndClamp,          ///< cwnd first exceeded the advertised window
  kRwndRelease,        ///< cwnd fell back below the advertised window
  kDelayedAckFire,     ///< receiver's 200 ms heartbeat flushed an ACK
  kOutOfOrderBuffered, ///< receiver buffered a hole; value = buffer depth
  kHoleFilled,         ///< a retransmission filled the receiver's hole
  kFaultDrop,          ///< injector dropped a packet (blackout or loss)
  kFaultDuplicate,     ///< injector scheduled duplicate copies
  kFaultReorder,       ///< injector held a packet back
  kFaultDelay,         ///< injector added spike delay
  kWatchdogTrip,       ///< a watchdog check failed; the run is aborting
  kTfrcRateUpdate,     ///< TFRC allowed rate changed; value = rate (pps)
  kTfrcNoFeedback,     ///< TFRC no-feedback timer halved the rate
};

/// Stable lower-case token for a kind (JSONL field / Prometheus label).
[[nodiscard]] std::string_view conn_event_name(ConnEventKind kind) noexcept;

/// Inverse of conn_event_name. @throws std::invalid_argument.
[[nodiscard]] ConnEventKind conn_event_from_name(std::string_view name);

/// One timeline record. `value`/`aux` meanings are per kind: e.g. for
/// kRtoFire value = consecutive-timeout level and aux = the RTO that
/// expired; for window events value = cwnd and aux = ssthresh.
struct ConnEvent {
  sim::Time t = 0.0;
  ConnEventKind kind = ConnEventKind::kSlowStartEnter;
  double value = 0.0;
  double aux = 0.0;
};

/// Fixed-capacity overwrite-oldest ring of ConnEvents.
class ConnEventTrace {
 public:
  /// @throws std::invalid_argument if capacity == 0.
  explicit ConnEventTrace(std::size_t capacity = 65536);

  void record(sim::Time t, ConnEventKind kind, double value = 0.0,
              double aux = 0.0) noexcept {
    ConnEvent& slot = ring_[next_];
    slot.t = t;
    slot.kind = kind;
    slot.value = value;
    slot.aux = aux;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;  // wrapped: the oldest event was just overwritten
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return size_ + dropped_; }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<ConnEvent> events() const;

  /// Count of retained events of one kind.
  [[nodiscard]] std::uint64_t count(ConnEventKind kind) const noexcept;

  /// Empties the ring (its capacity is kept).
  void clear() noexcept;

 private:
  std::vector<ConnEvent> ring_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace pftk::obs
