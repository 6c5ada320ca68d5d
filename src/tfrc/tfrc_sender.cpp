#include "tfrc/tfrc_sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/approx_model.hpp"

namespace pftk::tfrc {

void TfrcSenderConfig::validate() const {
  if (!(initial_rate_pps > 0.0) || !(min_rate_pps > 0.0) ||
      !(max_rate_pps >= min_rate_pps)) {
    throw std::invalid_argument("TfrcSenderConfig: inconsistent rate bounds");
  }
  if (b < 1) {
    throw std::invalid_argument("TfrcSenderConfig: b must be >= 1");
  }
  if (!(rtt_smoothing >= 0.0 && rtt_smoothing < 1.0)) {
    throw std::invalid_argument("TfrcSenderConfig: rtt_smoothing must be in [0, 1)");
  }
}

TfrcSender::TfrcSender(sim::EventQueue& queue, const TfrcSenderConfig& config)
    : queue_(queue), config_(config) {
  config_.validate();
  rate_ = config_.initial_rate_pps;
}

void TfrcSender::start() {
  if (!send_packet_) {
    throw std::logic_error("TfrcSender::start: no transmission callback set");
  }
  if (running_) {
    return;
  }
  running_ = true;
  schedule_next_packet();
}

void TfrcSender::schedule_next_packet() {
  const double gap = 1.0 / std::clamp(rate_, config_.min_rate_pps, config_.max_rate_pps);
  queue_.schedule_in(gap, [this] {
    if (!running_) {
      return;
    }
    TfrcPacket packet;
    packet.seq = next_seq_++;
    packet.sent_at = queue_.now();
    packet.rtt_estimate = srtt_;
    ++stats_.packets_sent;
    send_packet_(packet);
    schedule_next_packet();
  });
}

void TfrcSender::on_feedback(const TfrcFeedback& feedback, sim::Time now) {
  ++stats_.feedback_received;
  // RTT sample from the echoed timestamp (receiver hold time neglected —
  // our simulated receiver echoes the most recent packet).
  const double sample = now - feedback.echo_timestamp;
  if (sample > 0.0) {
    srtt_ = srtt_ == 0.0
                ? sample
                : config_.rtt_smoothing * srtt_ + (1.0 - config_.rtt_smoothing) * sample;
  }
  p_ = feedback.loss_event_rate;
  x_recv_ = feedback.receive_rate;
  recompute_rate();
  arm_no_feedback_timer();
}

void TfrcSender::recompute_rate() {
  if (p_ <= 0.0) {
    // Initial slow start: double per feedback round, bounded by twice
    // what the receiver reports actually arriving (RFC 5348 §4.3).
    slow_start_ = true;
    const double cap = x_recv_ > 0.0 ? 2.0 * x_recv_ : rate_ * 2.0;
    rate_ = std::clamp(std::min(rate_ * 2.0, cap), config_.min_rate_pps,
                       config_.max_rate_pps);
  } else {
    slow_start_ = false;
    pftk::model::ModelParams params;
    params.p = std::min(p_, 0.999);
    params.rtt = std::max(1e-4, srtt_);
    params.t0 = std::max(4.0 * params.rtt, 0.01);  // RFC: t_RTO = 4 R
    params.b = config_.b;
    params.wm = pftk::model::ModelParams::unlimited_window;
    // X_calc is the eq-(33) send rate at the loss event rate.
    const double x_calc = pftk::model::approx_model_send_rate(params);
    const double cap = x_recv_ > 0.0 ? 2.0 * x_recv_ : x_calc;
    rate_ = std::clamp(std::min(x_calc, cap), config_.min_rate_pps, config_.max_rate_pps);
  }
  rate_history_.push_back(rate_);
  if (etrace_ != nullptr) {
    etrace_->record(queue_.now(), obs::ConnEventKind::kTfrcRateUpdate, rate_, p_);
  }
}

void TfrcSender::arm_no_feedback_timer() {
  if (no_feedback_armed_) {
    queue_.cancel(no_feedback_timer_);
  }
  no_feedback_armed_ = true;
  const double interval = std::max(4.0 * (srtt_ > 0.0 ? srtt_ : 0.5), 0.1);
  no_feedback_timer_ = queue_.schedule_in(interval, [this] {
    no_feedback_armed_ = false;
    ++stats_.no_feedback_halvings;
    rate_ = std::max(config_.min_rate_pps, rate_ / 2.0);
    rate_history_.push_back(rate_);
    if (etrace_ != nullptr) {
      etrace_->record(queue_.now(), obs::ConnEventKind::kTfrcNoFeedback, rate_, p_);
    }
    arm_no_feedback_timer();
  });
}

}  // namespace pftk::tfrc
