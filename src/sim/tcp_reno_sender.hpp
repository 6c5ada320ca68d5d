// TCP Reno sender (saturated / "infinite source").
//
// Implements the congestion control the paper models plus the pieces the
// model deliberately omits but real 1998 stacks had (the paper validates
// against such stacks, so we keep them): slow start, fast recovery window
// inflation, and Jacobson/Karn RTO estimation with coarse timer ticks.
//
// Mechanisms:
//  * slow start:        cwnd += 1 per ACK while cwnd < ssthresh
//  * congestion avoid.: cwnd += 1/cwnd per ACK (so +1/b per round with
//                       delayed ACKs, the model's linear growth)
//  * fast retransmit:   after `dupack_threshold` dup-ACKs (3 standard,
//                       2 for the Linux flavor of Table I)
//  * fast recovery:     cwnd = ssthresh + 3, inflate per dup-ACK, deflate
//                       to ssthresh on the next new ACK (classic Reno)
//  * timeout:           cwnd = 1, exponential backoff doubling the RTO up
//                       to 2^max_backoff_exponent (64*T0; Irix caps at 32)
//  * Karn's algorithm:  RTT sampled only from never-retransmitted
//                       segments; backoff cleared on new data ACKed
//  * receiver window:   effective window = min(cwnd, advertised_window)
#pragma once

#include <cstdint>
#include <functional>

#include "obs/conn_event_trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/packet.hpp"
#include "sim/sender_observer.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Loss-recovery flavor of the sender. The paper models Reno; Tahoe is
/// what SunOS-derived stacks of Table I actually ran (Section IV), and
/// NewReno's partial-ACK handling is the "fast recovery" refinement the
/// paper lists as future work.
enum class RecoveryStyle {
  kReno,     ///< classic: exit fast recovery on the first new ACK
  kNewReno,  ///< stay in recovery across partial ACKs, retransmit each hole
  kTahoe,    ///< no fast recovery: dup-ACK loss behaves like a timeout
             ///< (window to 1, slow start), but without the RTO wait
};

/// Sender tuning. Defaults model a standard 4.4BSD-style Reno stack.
struct TcpRenoSenderConfig {
  double initial_cwnd = 1.0;          ///< packets
  double initial_ssthresh = 1e9;      ///< effectively unbounded
  double advertised_window = 48.0;    ///< receiver window Wm, packets
  int dupack_threshold = 3;           ///< dup-ACKs triggering fast rtx
  int max_backoff_exponent = 6;       ///< RTO multiplier cap 2^k (64*T0)
  Duration initial_rto = 3.0;         ///< before the first RTT sample
  Duration min_rto = 1.0;             ///< RTO floor, seconds
  Duration max_rto = 240.0;           ///< RTO ceiling before backoff cap
  Duration timer_tick = 0.5;          ///< coarse-timer granularity; 0 = exact
  RecoveryStyle recovery = RecoveryStyle::kReno;
  /// Stop after successfully delivering this many packets; 0 = saturated
  /// sender (the paper's "infinite source").
  SeqNo total_packets = 0;
  void validate() const;
};

/// Counters exposed by the sender.
struct TcpRenoSenderStats {
  std::uint64_t transmissions = 0;     ///< every segment sent (the model's "send rate")
  std::uint64_t new_segments = 0;      ///< first transmissions only
  std::uint64_t retransmissions = 0;   ///< fast + timeout retransmissions
  std::uint64_t fast_retransmits = 0;  ///< TD loss indications acted upon
  std::uint64_t timeouts = 0;          ///< individual timer expirations
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks_received = 0;
};

/// Everything about a TcpRenoSender that changes as it runs, in one
/// struct so that TcpRenoSender::save copies every field: a field added
/// here is saved.
struct TcpRenoSenderState {
  /// Bookkeeping for one outstanding segment (Karn validity + timing).
  struct FlightRecord {
    Time first_sent = 0.0;
    std::size_t in_flight_at_send = 0;
    bool retransmitted = false;
  };

  bool rwnd_clamped_ = false;  ///< last reported clamp state (trace only)

  SeqNo next_seq_ = 0;
  SeqNo snd_una_ = 0;
  /// High-water mark: one past the highest sequence ever transmitted.
  /// After a timeout next_seq_ is pulled back below this (go-back-N).
  SeqNo highest_sent_ = 0;
  double cwnd_ = 1.0;
  double ssthresh_ = 1e9;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  SeqNo recover_ = 0;  ///< NewReno: recovery ends when cum ACK passes this
  int consecutive_timeouts_ = 0;
  Time completion_time_ = 0.0;

  // Jacobson estimator state.
  bool have_rtt_sample_ = false;
  Duration srtt_ = 0.0;
  Duration rttvar_ = 0.0;
  Duration rto_ = 3.0;

  // Classic single-timer RTT timing (4.4BSD style): one segment is timed
  // at a time and the measurement is abandoned on any retransmission, so
  // recovery stalls never pollute the samples (Karn's algorithm).
  bool timing_active_ = false;
  bool timing_cancelled_ = false;
  SeqNo timed_seq_ = 0;
  Time timing_started_ = 0.0;
  std::size_t timing_in_flight_ = 0;

  /// Flight records indexed by (seq - flight_base_); front == snd_una_.
  FifoRing<FlightRecord> flight_;
  SeqNo flight_base_ = 0;

  TcpRenoSenderStats stats_;
};

/// Saturated TCP Reno sender: always has data, sends whenever the window
/// allows, forever.
class TcpRenoSender : private TcpRenoSenderState {
 public:
  using SendSegmentFn = std::function<void(const Segment&)>;
  using State = TcpRenoSenderState;
  using FlightRecord = State::FlightRecord;

  /// @param queue event queue driving the simulation (must outlive this)
  /// @throws std::invalid_argument if config is invalid.
  TcpRenoSender(EventQueue& queue, const TcpRenoSenderConfig& config);

  // The RTO timer's callback holds `this`.
  TcpRenoSender(const TcpRenoSender&) = delete;
  TcpRenoSender& operator=(const TcpRenoSender&) = delete;

  /// Copies the sender's state (not its wiring: queue, callbacks,
  /// observer, trace) into `out`, reusing its buffers.
  void save(State& out) const { out = *this; }

  /// Puts back a state that save() took, with the queue's state of the
  /// same moment (the RTO timer lives in the queue).
  void restore(const State& state) { static_cast<State&>(*this) = state; }

  /// Sets the segment transmission callback (must be set before start()).
  void set_send_segment(SendSegmentFn fn) { send_segment_ = std::move(fn); }

  /// Attaches a passive observer (may be nullptr to detach).
  void set_observer(SenderObserver* observer) noexcept { observer_ = observer; }

  /// Attaches a connection-event trace (nullptr detaches). Recording is
  /// passive — it reads state already computed, consumes no randomness,
  /// and schedules nothing, so attaching it cannot change a run.
  void set_event_trace(obs::ConnEventTrace* trace) noexcept { etrace_ = trace; }

  /// Opens the flood gates: transmits the initial window and arms timers.
  /// @throws std::logic_error if no transmission callback is set.
  void start();

  /// Handles one arriving cumulative ACK.
  void on_ack(const Ack& ack, Time now);

  // Introspection (used by tests and the trace/experiment layers).
  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] double ssthresh() const noexcept { return ssthresh_; }
  [[nodiscard]] SeqNo next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] SeqNo snd_una() const noexcept { return snd_una_; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return static_cast<std::size_t>(next_seq_ - snd_una_);
  }
  [[nodiscard]] bool in_fast_recovery() const noexcept { return in_fast_recovery_; }
  /// Duplicate ACKs counted toward the current fast-retransmit decision.
  [[nodiscard]] int dupacks() const noexcept { return dupacks_; }
  /// One past the highest sequence ever transmitted (go-back-N pulls
  /// next_seq() below this after a timeout).
  [[nodiscard]] SeqNo highest_sent() const noexcept { return highest_sent_; }

  /// True once every packet of a finite transfer is acknowledged.
  [[nodiscard]] bool complete() const noexcept {
    return config_.total_packets > 0 && snd_una_ >= config_.total_packets;
  }
  /// Simulation time at which complete() first became true (0 if not yet).
  [[nodiscard]] Time completion_time() const noexcept { return completion_time_; }
  [[nodiscard]] int consecutive_timeouts() const noexcept { return consecutive_timeouts_; }
  [[nodiscard]] Duration current_rto() const noexcept { return rto_; }
  /// RTO after exponential backoff — the delay the next timeout will wait.
  [[nodiscard]] Duration backed_off_rto() const;
  /// The configuration this sender was built with (watchdog invariants).
  [[nodiscard]] const TcpRenoSenderConfig& sender_config() const noexcept {
    return config_;
  }
  [[nodiscard]] Duration smoothed_rtt() const noexcept { return srtt_; }
  [[nodiscard]] const TcpRenoSenderStats& stats() const noexcept { return stats_; }

  // Behavioral-state introspection for canonical state digests (the
  // model checker's visited-state hashing): every field here feeds a
  // future decision — RTT estimation (Jacobson/Karn), timer state, or
  // retransmission bookkeeping — so two senders agreeing on all of them
  // (plus the public window/sequence state above) behave identically.
  [[nodiscard]] Duration rtt_var() const noexcept { return rttvar_; }
  [[nodiscard]] bool rtt_timing_active() const noexcept { return timing_active_; }
  [[nodiscard]] SeqNo rtt_timed_seq() const noexcept { return timed_seq_; }
  [[nodiscard]] Time rtt_timing_started() const noexcept { return timing_started_; }
  [[nodiscard]] bool rtx_timer_armed() const noexcept { return queue_.armed(rtx_timer_); }
  /// Outstanding-segment records, front == snd_una() (Karn flags).
  [[nodiscard]] const FifoRing<FlightRecord>& flight() const noexcept {
    return flight_;
  }

 private:

  void transmit(SeqNo seq, bool retransmission);
  void try_send_new();
  void enter_fast_retransmit();
  void handle_timeout();
  void restart_rtx_timer();
  void take_rtt_sample(const Ack& ack, Time now);
  void update_rto(Duration sample);
  [[nodiscard]] double effective_window() const;
  [[nodiscard]] FlightRecord* record_for(SeqNo seq);

  void emit(obs::ConnEventKind kind, double value = 0.0, double aux = 0.0) {
    if (etrace_ != nullptr) {
      etrace_->record(queue_.now(), kind, value, aux);
    }
  }
  /// Records kRwndClamp/kRwndRelease transitions. No-op with no trace
  /// attached.
  void note_window_state();

  // Wiring, not saved.
  EventQueue& queue_;
  TcpRenoSenderConfig config_;
  SendSegmentFn send_segment_;
  SenderObserver* observer_ = nullptr;
  obs::ConnEventTrace* etrace_ = nullptr;
  TimerId rtx_timer_ = 0;
};

}  // namespace pftk::sim
