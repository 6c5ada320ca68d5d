// Deterministic, schedulable link impairments.
//
// The paper's traces come from real 1997-98 Internet paths: modem links
// that black out for seconds, ACK paths that lose whole trains, routes
// that duplicate and reorder, RTT spikes from route flaps. The stochastic
// LossModels capture the *average* loss process; a FaultInjector layers
// *adversarial episodes* on top, so experiments can probe how the model's
// error behaves when the loss process is hostile rather than stationary
// (cf. Zaragoza: accuracy hinges on the loss process, not the rate).
//
// Design rules:
//  * declarative — a FaultSchedule is plain data, parseable from a
//    compact string, so benches and the CLI replay identical sequences;
//  * deterministic — the injector owns a derived RNG stream; the same
//    (seed, schedule) pair always yields byte-identical traces, and an
//    empty schedule consumes no randomness (adding the layer does not
//    perturb existing runs);
//  * composable — the injector sits in front of any LossModel on a Link
//    and never reaches into TCP state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/conn_event_trace.hpp"
#include "sim/rng.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Impairment classes the injector can schedule.
enum class FaultKind {
  kBlackout,    ///< drop everything (time window or next-N-packets outage)
  kLoss,        ///< extra i.i.d. loss at `rate` during the window (ACK-path
                ///< loss when attached to the reverse link)
  kDuplicate,   ///< with prob `rate`, deliver an extra copy `magnitude` s late
  kReorder,     ///< with prob `rate`, hold a packet back `magnitude` s and let
                ///< later packets overtake it
  kDelaySpike,  ///< add `magnitude` s of one-way delay to every packet (RTT
                ///< spike episode)
};

/// One scheduled impairment episode.
struct FaultSpec {
  FaultKind kind = FaultKind::kBlackout;
  Time start = 0.0;        ///< activation time, seconds
  Duration duration = 0.0; ///< window length; 0 with count>0 = packet-scoped
  std::uint64_t count = 0; ///< blackout only: drop exactly this many packets
  double rate = 1.0;       ///< per-packet probability (loss/dup/reorder)
  double magnitude = 0.0;  ///< seconds (dup lag, reorder hold, spike delay)

  /// @throws std::invalid_argument naming the offending field.
  void validate() const;

  /// Compact rendering, e.g. "blackout@100+5" or "dup@0+60:0.02:0.01".
  [[nodiscard]] std::string describe() const;
};

/// A replayable sequence of impairments for one link direction.
struct FaultSchedule {
  std::vector<FaultSpec> faults;

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }

  /// @throws std::invalid_argument if any spec is invalid.
  void validate() const;

  /// Parses a ';'-separated list of fault specs. Grammar per spec:
  ///   kind@start[+duration][#count][:rate[:magnitude]]
  /// with kind in {blackout, loss, dup, reorder, delay}; e.g.
  ///   "blackout@100+5;ackloss is spelled loss on the reverse schedule"
  ///   "blackout@30#20"          drop the 20 packets after t=30
  ///   "loss@200+60:0.5"         50% extra loss for a minute
  ///   "dup@0+3600:0.01"         1% duplication all run
  ///   "reorder@0+3600:0.02:0.15" 2% of packets held back 150 ms
  ///   "delay@500+10:0.4"        +400 ms one-way delay for 10 s
  /// @throws std::invalid_argument with the offending clause on bad input.
  [[nodiscard]] static FaultSchedule parse(const std::string& text);

  /// ';'-joined describe() of every fault (inverse of parse()).
  [[nodiscard]] std::string describe() const;
};

/// Counters kept by the injector (per link direction).
struct FaultStats {
  std::uint64_t offered = 0;           ///< packets inspected
  std::uint64_t dropped_blackout = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;           ///< packets given spike delay

  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    return dropped_blackout + dropped_loss;
  }
  FaultStats& operator+=(const FaultStats& other) noexcept;
};

/// Per-packet verdict handed to the Link.
struct FaultVerdict {
  bool drop = false;
  std::size_t extra_copies = 0;  ///< duplicates to schedule after the original
  Duration duplicate_lag = 0.0;  ///< how far behind the original each copy runs
  Duration extra_delay = 0.0;    ///< added to the arrival time
  bool exempt_fifo = false;      ///< reordered: later packets may overtake it
};

/// Everything about a FaultInjector that changes as it runs, in one
/// struct so that FaultInjector::save copies every field.
struct FaultInjectorState {
  std::vector<std::uint64_t> remaining_;  ///< per-fault packet budgets
  Rng rng_{0};
  FaultStats stats_;
};

/// Applies a FaultSchedule to the packets offered to one link direction.
class FaultInjector : private FaultInjectorState {
 public:
  using State = FaultInjectorState;

  /// @throws std::invalid_argument if the schedule is invalid.
  FaultInjector(FaultSchedule schedule, Rng rng);

  /// Copies the injector's state (budgets, generator, counters; not the
  /// schedule, oracle or trace) into `out`, reusing its buffers.
  void save(State& out) const { out = *this; }
  void restore(const State& state) { static_cast<State&>(*this) = state; }

  /// Judges one offered packet; called once per packet in arrival order.
  [[nodiscard]] FaultVerdict on_packet(Time at);

  /// Restores schedule state (packet budgets, counters) for a fresh run.
  void reset();

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultSchedule& schedule() const noexcept { return schedule_; }

  /// Installs an application-order oracle consulted when two or more
  /// specs are active for the same packet: it receives the count of
  /// active specs and returns a rotation offset in [0, count) — the
  /// active specs are then applied starting from that offset (wrapping),
  /// which decides e.g. which of two overlapping blackouts absorbs the
  /// drop. Returning 0 reproduces the default schedule order exactly.
  /// nullptr detaches; with no oracle the single-spec fast path is
  /// untouched. This is the model checker's fault-interleaving seam.
  void set_order_oracle(std::function<std::size_t(std::size_t)> oracle) {
    order_oracle_ = std::move(oracle);
  }

  /// Attaches a connection-event trace (nullptr detaches). `direction`
  /// tags every emitted event's aux field (0 = forward/data path,
  /// 1 = reverse/ACK path) so a merged timeline stays attributable.
  void set_event_trace(obs::ConnEventTrace* trace, double direction = 0.0) noexcept {
    etrace_ = trace;
    direction_ = direction;
  }

 private:
  [[nodiscard]] bool active(const FaultSpec& spec, std::size_t index, Time at) const;
  /// Applies spec `i` to the verdict; returns true if the packet was
  /// dropped (later specs are moot).
  bool apply(std::size_t i, Time at, FaultVerdict& verdict);

  void emit(Time at, obs::ConnEventKind kind, double value) {
    if (etrace_ != nullptr) {
      etrace_->record(at, kind, value, direction_);
    }
  }

  // Wiring, not saved.
  FaultSchedule schedule_;
  std::function<std::size_t(std::size_t)> order_oracle_;
  std::vector<std::size_t> active_scratch_;  ///< reused active-spec index buffer
  obs::ConnEventTrace* etrace_ = nullptr;
  double direction_ = 0.0;
};

}  // namespace pftk::sim
