// TCP receiver with cumulative and delayed ACKs.
//
// Implements the receiver behaviour the model depends on (Section II):
//  * one cumulative ACK per `ack_every` in-order segments (b = 2 with
//    standard delayed ACKs) with a 200 ms delayed-ACK timer,
//  * an *immediate* duplicate ACK for every out-of-order segment — the
//    paper notes dup-ACKs are never delayed, which is what makes the
//    number of dup-ACKs equal the packets received in the "last round",
//  * an immediate ACK when a retransmission fills a hole.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/conn_event_trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Receiver tuning.
struct TcpReceiverConfig {
  int ack_every = 2;                  ///< segments per cumulative ACK (b)
  /// Delayed-ACK heartbeat period: like 4.4BSD, the delayed-ACK timer
  /// fires on a fixed 200 ms grid, so a straggling segment waits between
  /// 0 and this long (100 ms on average), not a full fixed timeout.
  Duration delayed_ack_timeout = 0.2;
  void validate() const;
};

/// Counters exposed by the receiver.
struct TcpReceiverStats {
  std::uint64_t segments_received = 0;   ///< all arrivals, including duplicates
  std::uint64_t duplicate_segments = 0;  ///< arrivals below the cumulative point
  std::uint64_t acks_sent = 0;
  std::uint64_t dup_acks_sent = 0;
};

/// Everything about a TcpReceiver that changes as it runs, in one struct
/// so that TcpReceiver::save copies every field: a field added here is
/// saved.
struct TcpReceiverState {
  SeqNo next_expected_ = 0;
  std::vector<SeqNo> out_of_order_;  ///< sorted, no duplicates
  int unacked_in_order_ = 0;
  TcpReceiverStats stats_;
};

/// A sink for in-order bulk data that emits cumulative ACKs.
class TcpReceiver : private TcpReceiverState {
 public:
  using SendAckFn = std::function<void(const Ack&)>;
  using State = TcpReceiverState;

  /// @param queue event queue driving the simulation (must outlive this)
  /// @throws std::invalid_argument if config is invalid.
  TcpReceiver(EventQueue& queue, const TcpReceiverConfig& config);

  // The delayed-ACK timer's callback holds `this`.
  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  /// Copies the receiver's state (not its wiring) into `out`, reusing
  /// its buffers.
  void save(State& out) const { out = *this; }

  /// Puts back a state that save() took, with the queue's state of the
  /// same moment (the delayed-ACK timer lives in the queue).
  void restore(const State& state) { static_cast<State&>(*this) = state; }

  /// Sets the ACK transmission callback (must be set before traffic flows).
  void set_send_ack(SendAckFn fn) { send_ack_ = std::move(fn); }

  /// Attaches a connection-event trace (nullptr detaches); purely passive.
  void set_event_trace(obs::ConnEventTrace* trace) noexcept { etrace_ = trace; }

  /// Handles one arriving data segment.
  void on_segment(const Segment& segment, Time now);

  /// Next in-order sequence number expected (== packets delivered so far).
  [[nodiscard]] SeqNo next_expected() const noexcept { return next_expected_; }

  /// Segments currently buffered out of order.
  [[nodiscard]] std::size_t buffered() const noexcept { return out_of_order_.size(); }

  /// The out-of-order buffer itself (sorted) — state-digest introspection.
  [[nodiscard]] const std::vector<SeqNo>& out_of_order() const noexcept {
    return out_of_order_;
  }

  /// In-order segments received since the last cumulative ACK.
  [[nodiscard]] int unacked_in_order() const noexcept { return unacked_in_order_; }

  /// Whether the delayed-ACK timer is currently armed.
  [[nodiscard]] bool delack_armed() const noexcept { return queue_.armed(delack_timer_); }

  [[nodiscard]] const TcpReceiverStats& stats() const noexcept { return stats_; }

 private:
  void emit_ack(Time now, SeqNo triggered_by, bool duplicate);
  void arm_delack_timer();

  void emit(obs::ConnEventKind kind, double value = 0.0, double aux = 0.0) {
    if (etrace_ != nullptr) {
      etrace_->record(queue_.now(), kind, value, aux);
    }
  }

  // Wiring, not saved.
  EventQueue& queue_;
  TcpReceiverConfig config_;
  SendAckFn send_ack_;
  obs::ConnEventTrace* etrace_ = nullptr;
  TimerId delack_timer_ = 0;
};

}  // namespace pftk::sim
