#include "sim/connection.hpp"

#include <stdexcept>

#include "obs/flight/flight_recorder.hpp"

namespace pftk::sim {

std::unique_ptr<LossModel> make_loss_model(const LossSpec& spec) {
  return std::visit(
      [](const auto& s) -> std::unique_ptr<LossModel> {
        using S = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<S, NoLossSpec>) {
          return nullptr;
        } else if constexpr (std::is_same_v<S, BernoulliLossSpec>) {
          return std::make_unique<BernoulliLoss>(s.p);
        } else if constexpr (std::is_same_v<S, BurstLossSpec>) {
          return std::make_unique<BurstLoss>(s.p, s.duration);
        } else if constexpr (std::is_same_v<S, MixedBurstLossSpec>) {
          return std::make_unique<MixedBurstLoss>(s.p, s.single_fraction, s.episode_mean,
                                                  s.episode_min);
        } else if constexpr (std::is_same_v<S, OracleLossSpec>) {
          return std::make_unique<OracleLoss>(s.oracle);
        } else {
          return std::make_unique<GilbertElliottLoss>(s.p_good_to_bad, s.p_bad_to_good,
                                                      s.loss_in_bad);
        }
      },
      spec);
}

std::unique_ptr<QueuePolicy> make_queue_policy(const QueueSpec& spec) {
  return std::visit(
      [](const auto& s) -> std::unique_ptr<QueuePolicy> {
        using S = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<S, NoQueueSpec>) {
          return nullptr;
        } else if constexpr (std::is_same_v<S, DropTailSpec>) {
          return std::make_unique<DropTailPolicy>(s.capacity);
        } else {
          return std::make_unique<RedPolicy>(s.config);
        }
      },
      spec);
}

Connection::Connection(const ConnectionConfig& config) {
  sender_ = std::make_unique<TcpRenoSender>(queue_, config.sender);
  receiver_ = std::make_unique<TcpReceiver>(queue_, config.receiver);

  // Independent randomness streams per component, all derived from the
  // master seed so a run is a pure function of its config. Fault
  // injectors get their own streams (3, 4): an empty schedule draws
  // nothing, so enabling the layer never perturbs an unfaulted run.
  auto make_faults = [&config](const FaultSchedule& schedule, std::uint64_t stream)
      -> std::unique_ptr<FaultInjector> {
    if (schedule.empty()) {
      return nullptr;
    }
    return std::make_unique<FaultInjector>(schedule, Rng::derive(config.seed, stream));
  };
  forward_ = std::make_unique<Link<Segment>>(queue_, config.forward_link,
                                             Rng::derive(config.seed, 1),
                                             make_loss_model(config.forward_loss),
                                             make_queue_policy(config.forward_queue),
                                             make_faults(config.forward_faults, 3));
  reverse_ = std::make_unique<Link<Ack>>(queue_, config.reverse_link,
                                         Rng::derive(config.seed, 2),
                                         make_loss_model(config.reverse_loss), nullptr,
                                         make_faults(config.reverse_faults, 4));

  // Always-on invariant checking: the checker sits first in the observer
  // chain so every simulation (and therefore every tier-1 sim test)
  // verifies the Reno state machine; user observers hang off its `next`.
  if (config.check_invariants) {
    invariants_ = std::make_unique<InvariantChecker>(*sender_);
    sender_->set_observer(invariants_.get());
  }

  sender_->set_send_segment([this](const Segment& segment) { forward_->send(segment); });
  forward_->set_deliver(
      [this](const Segment& segment, Time at) { receiver_->on_segment(segment, at); });
  receiver_->set_send_ack([this](const Ack& ack) { reverse_->send(ack); });
  reverse_->set_deliver([this](const Ack& ack, Time at) { sender_->on_ack(ack, at); });
}

void Connection::set_observer(SenderObserver* observer) noexcept {
  if (invariants_) {
    invariants_->set_next(observer);
  } else {
    sender_->set_observer(observer);
  }
}

void Connection::attach_observability(obs::ConnEventTrace* trace,
                                      obs::EventLoopStats* loop_stats) noexcept {
  etrace_ = trace;
  sender_->set_event_trace(trace);
  receiver_->set_event_trace(trace);
  if (FaultInjector* faults = forward_->mutable_faults()) {
    faults->set_event_trace(trace, /*direction=*/0.0);
  }
  if (FaultInjector* faults = reverse_->mutable_faults()) {
    faults->set_event_trace(trace, /*direction=*/1.0);
  }
  if (watchdog_) {
    watchdog_->set_event_trace(trace);
  }
  queue_.set_stats_sink(loop_stats);
}

void Connection::enable_watchdog(const WatchdogConfig& config) {
  watchdog_ = std::make_unique<SimWatchdog>(queue_, *sender_, config);
  watchdog_->set_event_trace(etrace_);
  watchdog_->arm();
}

void Connection::save(State& out) const {
  if (watchdog_) {
    throw std::logic_error("Connection::save: a watchdog's state is not saved");
  }
  out.origin = this;
  out.started = started_;
  queue_.save(out.queue);
  sender_->save(out.sender);
  if (invariants_) {
    invariants_->save(out.invariants);
  }
  receiver_->save(out.receiver);
  forward_->save(out.forward);
  reverse_->save(out.reverse);
}

void Connection::restore(const State& state) {
  if (state.origin != this) {
    throw std::logic_error("Connection::restore: the state was saved by another connection");
  }
  started_ = state.started;
  queue_.restore(state.queue);
  sender_->restore(state.sender);
  if (invariants_) {
    invariants_->restore(state.invariants);
  }
  receiver_->restore(state.receiver);
  forward_->restore(state.forward);
  reverse_->restore(state.reverse);
}

ConnectionSummary Connection::run_for(Duration duration) {
  return run_until(queue_.now() + duration);
}

ConnectionSummary Connection::run_until(Time end) {
  PFTK_SPAN("sim.run_slice");
  const Time start = queue_.now();
  const std::uint64_t sent_before = sender_->stats().transmissions;
  const std::uint64_t delivered_before = receiver_->next_expected();

  if (!started_) {
    started_ = true;
    sender_->start();
  }
  queue_.run_until(end);

  ConnectionSummary summary;
  summary.duration = queue_.now() - start;
  summary.packets_sent = sender_->stats().transmissions - sent_before;
  summary.packets_delivered = receiver_->next_expected() - delivered_before;
  summary.retransmissions = sender_->stats().retransmissions;
  summary.fast_retransmits = sender_->stats().fast_retransmits;
  summary.timeouts = sender_->stats().timeouts;
  if (summary.duration > 0.0) {
    summary.send_rate = static_cast<double>(summary.packets_sent) / summary.duration;
    summary.throughput = static_cast<double>(summary.packets_delivered) / summary.duration;
  }
  if (const FaultInjector* faults = forward_->faults()) {
    summary.forward_faults = faults->stats();
  }
  if (const FaultInjector* faults = reverse_->faults()) {
    summary.reverse_faults = faults->stats();
  }
  return summary;
}

}  // namespace pftk::sim
