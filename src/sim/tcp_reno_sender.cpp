#include "sim/tcp_reno_sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pftk::sim {

void TcpRenoSenderConfig::validate() const {
  if (!(initial_cwnd >= 1.0)) {
    throw std::invalid_argument("TcpRenoSenderConfig: initial_cwnd must be >= 1");
  }
  if (!(initial_ssthresh >= 2.0)) {
    throw std::invalid_argument("TcpRenoSenderConfig: initial_ssthresh must be >= 2");
  }
  if (!(advertised_window >= 1.0)) {
    throw std::invalid_argument("TcpRenoSenderConfig: advertised_window must be >= 1");
  }
  if (dupack_threshold < 1) {
    throw std::invalid_argument("TcpRenoSenderConfig: dupack_threshold must be >= 1");
  }
  if (max_backoff_exponent < 0 || max_backoff_exponent > 20) {
    throw std::invalid_argument("TcpRenoSenderConfig: max_backoff_exponent out of range");
  }
  if (!(initial_rto > 0.0) || !(min_rto > 0.0) || !(max_rto >= min_rto)) {
    throw std::invalid_argument("TcpRenoSenderConfig: inconsistent RTO bounds");
  }
  if (timer_tick < 0.0) {
    throw std::invalid_argument("TcpRenoSenderConfig: timer_tick must be >= 0");
  }
}

TcpRenoSender::TcpRenoSender(EventQueue& queue, const TcpRenoSenderConfig& config)
    : queue_(queue), config_(config) {
  config_.validate();
  cwnd_ = config_.initial_cwnd;
  ssthresh_ = config_.initial_ssthresh;
  rto_ = config_.initial_rto;
  rtx_timer_ = queue_.add_timer([this] { handle_timeout(); });
}

void TcpRenoSender::start() {
  if (!send_segment_) {
    throw std::logic_error("TcpRenoSender::start: no transmission callback set");
  }
  emit(cwnd_ < ssthresh_ ? obs::ConnEventKind::kSlowStartEnter
                         : obs::ConnEventKind::kCongAvoidEnter,
       cwnd_, ssthresh_);
  try_send_new();
}

void TcpRenoSender::note_window_state() {
  if (etrace_ == nullptr) {
    return;
  }
  const bool clamped = cwnd_ > config_.advertised_window;
  if (clamped != rwnd_clamped_) {
    rwnd_clamped_ = clamped;
    etrace_->record(queue_.now(),
                    clamped ? obs::ConnEventKind::kRwndClamp
                            : obs::ConnEventKind::kRwndRelease,
                    cwnd_, config_.advertised_window);
  }
}

double TcpRenoSender::effective_window() const {
  return std::max(1.0, std::min(cwnd_, config_.advertised_window));
}

TcpRenoSender::FlightRecord* TcpRenoSender::record_for(SeqNo seq) {
  if (seq < flight_base_) {
    return nullptr;
  }
  const auto idx = static_cast<std::size_t>(seq - flight_base_);
  if (idx >= flight_.size()) {
    return nullptr;
  }
  return &flight_[idx];
}

void TcpRenoSender::transmit(SeqNo seq, bool retransmission) {
  Segment segment;
  segment.seq = seq;
  segment.retransmission = retransmission;
  segment.sent_at = queue_.now();

  ++stats_.transmissions;
  if (retransmission) {
    ++stats_.retransmissions;
    if (FlightRecord* rec = record_for(seq)) {
      rec->retransmitted = true;  // Karn: its RTT sample is now invalid
    }
    timing_cancelled_ = true;  // Karn: abandon the in-progress measurement
  } else {
    ++stats_.new_segments;
    flight_.push_back(FlightRecord{queue_.now(), in_flight(), false});
    highest_sent_ = seq + 1;
    if (!timing_active_) {
      timing_active_ = true;
      timing_cancelled_ = false;
      timed_seq_ = seq;
      timing_started_ = queue_.now();
      timing_in_flight_ = in_flight();
    }
  }

  if (observer_ != nullptr) {
    observer_->on_segment_sent(queue_.now(), seq, retransmission, in_flight(), cwnd_);
  }
  send_segment_(segment);
}

void TcpRenoSender::try_send_new() {
  const auto window = static_cast<SeqNo>(std::floor(effective_window()));
  bool sent_any = false;
  while (next_seq_ - snd_una_ < window &&
         (config_.total_packets == 0 || next_seq_ < config_.total_packets)) {
    const SeqNo seq = next_seq_++;
    // After a timeout snd_nxt is pulled back to snd_una (go-back-N, as in
    // 4.4BSD): sequence numbers below the high-water mark are
    // retransmissions driven by the slow-start window.
    transmit(seq, /*retransmission=*/seq < highest_sent_);
    sent_any = true;
  }
  if (sent_any && !rtx_timer_armed()) {
    restart_rtx_timer();
  }
}

void TcpRenoSender::on_ack(const Ack& ack, Time now) {
  ++stats_.acks_received;

  if (ack.cumulative > snd_una_) {
    // --- New data acknowledged ---
    if (observer_ != nullptr) {
      observer_->on_ack_received(now, ack.cumulative, /*duplicate=*/false);
    }
    take_rtt_sample(ack, now);

    const SeqNo newly_acked = ack.cumulative - snd_una_;
    snd_una_ = ack.cumulative;
    if (next_seq_ < snd_una_) {
      next_seq_ = snd_una_;  // the ACK overtook the go-back-N resend point
    }
    // Drop flight records up to the new cumulative point.
    while (flight_base_ < snd_una_ && !flight_.empty()) {
      flight_.pop_front();
      ++flight_base_;
    }
    flight_base_ = snd_una_;

    consecutive_timeouts_ = 0;  // Karn: backoff cleared by new data
    dupacks_ = 0;

    if (complete()) {
      if (completion_time_ == 0.0) {
        completion_time_ = now;
      }
      queue_.disarm(rtx_timer_);
      return;
    }

    if (in_fast_recovery_) {
      if (config_.recovery == RecoveryStyle::kNewReno && ack.cumulative < recover_) {
        // NewReno partial ACK: the window still has holes. Retransmit the
        // next one, deflate by the amount acknowledged, stay in recovery.
        cwnd_ = std::max(ssthresh_, cwnd_ - static_cast<double>(newly_acked) + 1.0);
        note_window_state();
        transmit(snd_una_, /*retransmission=*/true);
        restart_rtx_timer();
        try_send_new();
        return;
      }
      // Classic Reno (or a NewReno full ACK): deflate and leave recovery.
      in_fast_recovery_ = false;
      cwnd_ = ssthresh_;
      emit(obs::ConnEventKind::kFastRecoveryExit, cwnd_, ssthresh_);
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start: one increment per ACK event
      if (cwnd_ > ssthresh_) {
        cwnd_ = ssthresh_;
      }
      if (cwnd_ >= ssthresh_) {
        emit(obs::ConnEventKind::kCongAvoidEnter, cwnd_, ssthresh_);
      }
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance: 1/W per ACK
    }
    note_window_state();

    if (in_flight() == 0) {
      queue_.disarm(rtx_timer_);
    } else {
      restart_rtx_timer();
    }
    try_send_new();
    return;
  }

  if (ack.cumulative == snd_una_ && in_flight() > 0) {
    // --- Duplicate ACK ---
    ++stats_.dup_acks_received;
    if (observer_ != nullptr) {
      observer_->on_ack_received(now, ack.cumulative, /*duplicate=*/true);
    }
    if (in_fast_recovery_) {
      cwnd_ += 1.0;  // window inflation per extra dup-ACK
      note_window_state();
      try_send_new();
      return;
    }
    ++dupacks_;
    if (dupacks_ == config_.dupack_threshold) {
      enter_fast_retransmit();
    }
    return;
  }
  // Stale ACK (below snd_una_): ignore.
}

void TcpRenoSender::enter_fast_retransmit() {
  ++stats_.fast_retransmits;
  const double flight = static_cast<double>(in_flight());
  ssthresh_ = std::max(flight / 2.0, 2.0);
  emit(obs::ConnEventKind::kFastRetransmit, static_cast<double>(dupacks_),
       static_cast<double>(snd_una_));
  emit(obs::ConnEventKind::kSsthreshUpdate, ssthresh_, flight);
  if (observer_ != nullptr) {
    observer_->on_fast_retransmit(queue_.now(), snd_una_);
  }
  if (config_.recovery == RecoveryStyle::kTahoe) {
    // Tahoe has no fast recovery: collapse to one packet and slow-start,
    // resending the whole flight go-back-N — a timeout without the wait.
    cwnd_ = 1.0;
    dupacks_ = 0;
    emit(obs::ConnEventKind::kSlowStartEnter, cwnd_, ssthresh_);
    note_window_state();
    next_seq_ = snd_una_;
    try_send_new();
    restart_rtx_timer();
    return;
  }
  in_fast_recovery_ = true;
  recover_ = highest_sent_;  // NewReno: recovery covers this flight
  cwnd_ = ssthresh_ + static_cast<double>(config_.dupack_threshold);
  emit(obs::ConnEventKind::kFastRecoveryEnter, cwnd_, ssthresh_);
  note_window_state();
  transmit(snd_una_, /*retransmission=*/true);
  restart_rtx_timer();
}

Duration TcpRenoSender::backed_off_rto() const {
  const int exponent = std::min(consecutive_timeouts_, config_.max_backoff_exponent);
  // validate() keeps the exponent <= 20: 2^exponent exactly, without libm.
  const double multiplier = static_cast<double>(1u << exponent);
  return std::min(rto_ * multiplier, config_.max_rto * 64.0);
}

void TcpRenoSender::handle_timeout() {
  if (in_flight() == 0) {
    return;  // spurious: everything was acked as the timer fired
  }
  const Duration rto_used = backed_off_rto();
  ++stats_.timeouts;
  ++consecutive_timeouts_;

  const double flight = static_cast<double>(in_flight());
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = 1.0;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  emit(obs::ConnEventKind::kRtoFire, static_cast<double>(consecutive_timeouts_),
       rto_used);
  emit(obs::ConnEventKind::kSsthreshUpdate, ssthresh_, flight);
  emit(obs::ConnEventKind::kSlowStartEnter, cwnd_, ssthresh_);
  note_window_state();

  if (observer_ != nullptr) {
    observer_->on_timeout(queue_.now(), snd_una_, consecutive_timeouts_, rto_used);
  }
  // Go-back-N (4.4BSD): pull snd_nxt back to snd_una; slow start then
  // resends the lost flight before any new data.
  next_seq_ = snd_una_;
  try_send_new();
  restart_rtx_timer();
}

void TcpRenoSender::restart_rtx_timer() {
  queue_.arm_in(rtx_timer_, backed_off_rto());
}

void TcpRenoSender::take_rtt_sample(const Ack& ack, Time now) {
  // Single-timer timing: a sample completes when the cumulative point
  // passes the timed segment, and only if no retransmission happened
  // since the timing began (Karn's rule).
  if (!timing_active_ || ack.cumulative <= timed_seq_) {
    return;
  }
  timing_active_ = false;
  if (timing_cancelled_) {
    return;
  }
  const Duration sample = now - timing_started_;
  if (sample <= 0.0) {
    return;
  }
  if (observer_ != nullptr) {
    observer_->on_rtt_sample(now, sample, timing_in_flight_);
  }
  update_rto(sample);
}

void TcpRenoSender::update_rto(Duration sample) {
  if (!have_rtt_sample_) {
    have_rtt_sample_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
    srtt_ = 0.875 * srtt_ + 0.125 * sample;
  }
  Duration rto = srtt_ + 4.0 * rttvar_;
  if (config_.timer_tick > 0.0) {
    // Coarse 1990s timers: round up to the next tick. This is what makes
    // measured T0 much larger than RTT, as in Table II.
    rto = std::ceil(rto / config_.timer_tick) * config_.timer_tick;
  }
  rto_ = std::clamp(rto, config_.min_rto, config_.max_rto);
}

}  // namespace pftk::sim
