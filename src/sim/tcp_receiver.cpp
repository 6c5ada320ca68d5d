#include "sim/tcp_receiver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pftk::sim {

void TcpReceiverConfig::validate() const {
  if (ack_every < 1) {
    throw std::invalid_argument("TcpReceiverConfig: ack_every must be >= 1");
  }
  if (delayed_ack_timeout < 0.0) {
    throw std::invalid_argument("TcpReceiverConfig: delayed_ack_timeout must be >= 0");
  }
}

TcpReceiver::TcpReceiver(EventQueue& queue, const TcpReceiverConfig& config)
    : queue_(queue), config_(config) {
  config_.validate();
  delack_timer_ = queue_.add_timer([this] {
    if (unacked_in_order_ > 0) {
      unacked_in_order_ = 0;
      emit(obs::ConnEventKind::kDelayedAckFire, static_cast<double>(next_expected_));
      emit_ack(queue_.now(), next_expected_ > 0 ? next_expected_ - 1 : 0,
               /*duplicate=*/false);
    }
  });
}

void TcpReceiver::on_segment(const Segment& segment, Time now) {
  ++stats_.segments_received;

  if (segment.seq < next_expected_) {
    // Spurious retransmission of already-delivered data: ACK immediately
    // so the sender learns the current cumulative point.
    ++stats_.duplicate_segments;
    emit_ack(now, segment.seq, /*duplicate=*/false);
    return;
  }

  if (segment.seq == next_expected_) {
    ++next_expected_;
    // Pull any buffered continuation forward.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == next_expected_) {
      ++next_expected_;
      ++it;
    }
    const bool filled_hole = it != out_of_order_.begin();
    out_of_order_.erase(out_of_order_.begin(), it);
    if (filled_hole) {
      // A retransmission repaired the stream: ACK the new cumulative
      // point at once (RFC 2581 section 4.2).
      emit(obs::ConnEventKind::kHoleFilled, static_cast<double>(next_expected_),
           static_cast<double>(segment.seq));
      queue_.disarm(delack_timer_);
      unacked_in_order_ = 0;
      emit_ack(now, segment.seq, /*duplicate=*/false);
      return;
    }
    ++unacked_in_order_;
    if (unacked_in_order_ >= config_.ack_every || config_.delayed_ack_timeout == 0.0) {
      queue_.disarm(delack_timer_);
      unacked_in_order_ = 0;
      emit_ack(now, segment.seq, /*duplicate=*/false);
    } else {
      arm_delack_timer();
    }
    return;
  }

  // Out of order: buffer and emit an immediate duplicate ACK. Dup-ACKs
  // are never delayed (footnote 1 of the paper / RFC 2581).
  if (auto at = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), segment.seq);
      at == out_of_order_.end() || *at != segment.seq) {
    out_of_order_.insert(at, segment.seq);
  }
  emit(obs::ConnEventKind::kOutOfOrderBuffered,
       static_cast<double>(out_of_order_.size()), static_cast<double>(segment.seq));
  queue_.disarm(delack_timer_);
  if (unacked_in_order_ > 0) {
    unacked_in_order_ = 0;  // fold the pending delayed ACK into this one
  }
  emit_ack(now, segment.seq, /*duplicate=*/true);
}

void TcpReceiver::emit_ack(Time now, SeqNo triggered_by, bool duplicate) {
  if (!send_ack_) {
    throw std::logic_error("TcpReceiver: no ACK callback set");
  }
  ++stats_.acks_sent;
  if (duplicate) {
    ++stats_.dup_acks_sent;
  }
  Ack ack;
  ack.cumulative = next_expected_;
  ack.sent_at = now;
  ack.triggered_by = triggered_by;
  send_ack_(ack);
}

void TcpReceiver::arm_delack_timer() {
  if (delack_armed()) {
    return;
  }
  // Fire at the next heartbeat-grid boundary (BSD fasttimo style): an
  // unpaired segment waits U(0, period], period/2 on average.
  const Duration period = config_.delayed_ack_timeout;
  const Time now = queue_.now();
  const double ticks = std::floor(now / period + 1e-12);
  Duration delay = (ticks + 1.0) * period - now;
  if (delay <= 0.0 || delay > period) {
    delay = period;
  }
  queue_.arm_in(delack_timer_, delay);
}

}  // namespace pftk::sim
