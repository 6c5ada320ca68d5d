// One-way network path segment.
//
// A Link carries payloads (data Segments one way, Acks the other) and
// models, in order of application:
//   1. an optional scheduled fault-injection layer (blackouts, extra
//      loss, duplication, reordering, delay spikes) at ingress,
//   2. a stochastic loss process (LossModel),
//   3. an optional bandwidth limit with a FIFO queue and an admission
//      policy (drop-tail / RED) — this is what makes the Fig.-11 modem
//      scenario's RTT grow with the window,
//   4. fixed propagation delay plus optional uniform jitter,
// and delivers in FIFO order (delivery times are monotone), since TCP
// dup-ACK counting is meaningful only on mostly-in-order paths —
// except for packets a fault deliberately reorders or duplicates.
//
// FIFO deliveries are the link's delivery stream (EventQueue::push):
// the queue holds their (time, seq) keys and the link their payloads,
// in a ring popped in step with the keys, so a packet in flight costs
// no heap entry and no callback. Three cases keep a one-shot event per
// delivery: reordered packets and duplicate copies, which may overtake
// the stream, and every delivery while a tie-breaker is installed,
// which orders only what is in the heap.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/loss_model.hpp"
#include "sim/queue_policy.hpp"
#include "sim/rng.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {

/// Link configuration; defaults give a clean, infinitely fast path.
struct LinkConfig {
  Duration propagation_delay = 0.05;  ///< seconds, one way (>= 0)
  Duration jitter = 0.0;              ///< max extra uniform delay per packet (>= 0)
  double rate_pps = 0.0;              ///< serialization rate; 0 = unlimited
  void validate() const {
    // Written so that NaN fails too: a NaN delay would schedule NaN times.
    for (const double v : {propagation_delay, jitter, rate_pps}) {
      if (!(v >= 0.0 && v <= std::numeric_limits<double>::max())) {
        throw std::invalid_argument("LinkConfig: delay/jitter/rate must be finite and >= 0");
      }
    }
  }
};

/// Counters exposed by every link.
struct LinkStats {
  std::uint64_t offered = 0;        ///< packets handed to send()
  std::uint64_t dropped_loss = 0;   ///< dropped by the loss model
  std::uint64_t dropped_queue = 0;  ///< rejected by the queue policy
  std::uint64_t dropped_fault = 0;  ///< dropped by the fault injector
  std::uint64_t duplicated = 0;     ///< extra copies injected by faults
  std::uint64_t delivered = 0;      ///< handed to the delivery callback
};

/// What a Link itself changes as it runs, in one struct so that
/// Link::save copies every field; Link::State adds its processes' state.
template <typename T>
struct LinkOwnState {
  static constexpr StreamId kNoStream = std::numeric_limits<StreamId>::max();

  Rng rng_{0};
  Time busy_until_ = 0.0;
  Time last_delivery_ = 0.0;
  LinkStats stats_;
  StreamId stream_ = kNoStream;  ///< registered on the first stream push
  FifoRing<T> in_flight_;        ///< payloads of the stream's keys, oldest first
};

/// A unidirectional link carrying payloads of type T.
template <typename T>
class Link : private LinkOwnState<T> {
  using Own = LinkOwnState<T>;
  using Own::busy_until_;
  using Own::in_flight_;
  using Own::kNoStream;
  using Own::last_delivery_;
  using Own::rng_;
  using Own::stats_;
  using Own::stream_;

 public:
  using DeliverFn = std::function<void(const T&, Time)>;

  /// The link's state with its loss process's, queue policy's and fault
  /// injector's (whichever it has), but not its wiring.
  struct State {
    Own link;
    LossModel::State loss;
    QueuePolicy::State policy;
    FaultInjector::State faults;
  };

  /// @param queue    event queue driving the simulation (must outlive the link)
  /// @param config   delays and rate
  /// @param rng      stream for loss/jitter/AQM randomness
  /// @param loss     optional ingress loss process (may be nullptr)
  /// @param policy   optional queue admission policy; required if
  ///                 config.rate_pps > 0 (defaults to a deep drop-tail)
  /// @param faults   optional scheduled-impairment layer, applied at
  ///                 ingress before the stochastic loss process
  Link(EventQueue& queue, const LinkConfig& config, Rng rng,
       std::unique_ptr<LossModel> loss = nullptr,
       std::unique_ptr<QueuePolicy> policy = nullptr,
       std::unique_ptr<FaultInjector> faults = nullptr)
      : queue_(queue),
        config_(config),
        loss_(std::move(loss)),
        policy_(std::move(policy)),
        faults_(std::move(faults)) {
    rng_ = std::move(rng);
    config_.validate();
    if (config_.rate_pps > 0.0 && !policy_) {
      policy_ = std::make_unique<DropTailPolicy>(1000);
    }
  }

  /// Sets the delivery callback (must be set before the first send()).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Copies the link's state into `out`, reusing its buffers.
  void save(State& out) const {
    out.link = *this;
    if (loss_) {
      out.loss = loss_->state();
    }
    if (policy_) {
      out.policy = policy_->state();
    }
    if (faults_) {
      faults_->save(out.faults);
    }
  }

  /// Puts back a state that save() took from this link, with the queue's
  /// state of the same moment (its stream and deliveries live there).
  void restore(const State& state) {
    static_cast<Own&>(*this) = state.link;
    if (loss_) {
      loss_->restore(state.loss);
    }
    if (policy_) {
      policy_->restore(state.policy);
    }
    if (faults_) {
      faults_->restore(state.faults);
    }
  }

  /// Offers one payload to the link at the current simulation time.
  /// @throws std::logic_error if no delivery callback is set.
  void send(const T& item) {
    if (!deliver_) {
      throw std::logic_error("Link::send: no delivery callback set");
    }
    ++stats_.offered;
    const Time now = queue_.now();

    // Scheduled impairments act first: a blackout is physical-layer, so
    // the stochastic loss model never even sees the packet.
    FaultVerdict verdict;
    if (faults_) {
      verdict = faults_->on_packet(now);
      if (verdict.drop) {
        ++stats_.dropped_fault;
        return;
      }
    }

    if (loss_ && loss_->should_drop(now, rng_)) {
      ++stats_.dropped_loss;
      return;
    }

    Time ready = now;
    if (config_.rate_pps > 0.0) {
      // Queue occupancy = packets already scheduled but not yet serialized.
      const double backlog_seconds = busy_until_ > now ? busy_until_ - now : 0.0;
      const auto qlen = static_cast<std::size_t>(backlog_seconds * config_.rate_pps + 0.5);
      if (policy_ && !policy_->admit(qlen, rng_)) {
        ++stats_.dropped_queue;
        return;
      }
      const Duration service = 1.0 / config_.rate_pps;
      busy_until_ = (busy_until_ > now ? busy_until_ : now) + service;
      ready = busy_until_;
    }

    Time arrival = ready + config_.propagation_delay;
    if (config_.jitter > 0.0) {
      arrival += rng_.uniform(0.0, config_.jitter);
    }
    arrival += verdict.extra_delay;
    if (verdict.exempt_fifo) {
      // A reordered packet is held back and deliberately overtaken: it
      // neither respects nor advances the FIFO frontier.
      if (arrival < queue_.now()) {
        arrival = queue_.now();
      }
    } else {
      // FIFO clamp: jitter never reorders deliveries.
      if (arrival < last_delivery_) {
        arrival = last_delivery_;
      }
      last_delivery_ = arrival;
    }

    if (verdict.exempt_fifo || queue_.has_tie_breaker()) {
      deliver_once(item, arrival);
    } else {
      if (stream_ == kNoStream) {
        stream_ = queue_.add_stream([this] { deliver_head(); });
      }
      queue_.push(stream_, arrival);
      in_flight_.push_back(item);
    }
    for (std::size_t copy = 1; copy <= verdict.extra_copies; ++copy) {
      // Duplicates trail the original; they do not advance the FIFO
      // frontier, so a late duplicate can arrive after newer packets
      // (exactly what dup-ACK machinery must tolerate).
      ++stats_.duplicated;
      deliver_once(item, arrival + verdict.duplicate_lag * static_cast<double>(copy));
    }
  }

  /// Current number of packets in the serialization backlog.
  [[nodiscard]] std::size_t backlog() const noexcept {
    if (config_.rate_pps <= 0.0 || busy_until_ <= queue_.now()) {
      return 0;
    }
    return static_cast<std::size_t>((busy_until_ - queue_.now()) * config_.rate_pps + 0.5);
  }

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }

  /// Arrival time of the latest FIFO-ordered delivery scheduled so far;
  /// future deliveries are clamped to at least this (state-digest
  /// introspection: two runs with equal frontiers behave identically).
  [[nodiscard]] Time fifo_frontier() const noexcept { return last_delivery_; }

  /// When the serialization stage frees up (0 when rate-unlimited).
  [[nodiscard]] Time busy_until() const noexcept { return busy_until_; }

  /// Mutable access to the loss model (the explorer swaps choice oracles
  /// in; nullptr when the link is lossless).
  [[nodiscard]] LossModel* mutable_loss() noexcept { return loss_.get(); }

  /// The attached fault injector, if any (for stats/introspection).
  [[nodiscard]] const FaultInjector* faults() const noexcept { return faults_.get(); }

  /// Mutable access to the injector (for attaching an event trace).
  [[nodiscard]] FaultInjector* mutable_faults() noexcept { return faults_.get(); }

  /// Resets loss-model/AQM/fault state and counters (not pending deliveries).
  void reset_processes() {
    if (loss_) {
      loss_->reset();
    }
    if (policy_) {
      policy_->reset();
    }
    if (faults_) {
      faults_->reset();
    }
    stats_ = LinkStats{};
  }

 private:
  /// A delivery outside the stream: one event of its own.
  void deliver_once(const T& item, Time arrival) {
    queue_.schedule_at(arrival, [this, item, arrival] {
      ++stats_.delivered;
      deliver_(item, arrival);
    });
  }

  /// The stream's head fired: its key is already popped, so pop the
  /// payload too before handing it on (the callback may throw, or send
  /// on this link again).
  void deliver_head() {
    const T item = in_flight_.front();
    in_flight_.pop_front();
    ++stats_.delivered;
    deliver_(item, queue_.now());
  }

  // Wiring, not saved (the processes' state is, through State).
  EventQueue& queue_;
  LinkConfig config_;
  std::unique_ptr<LossModel> loss_;
  std::unique_ptr<QueuePolicy> policy_;
  std::unique_ptr<FaultInjector> faults_;
  DeliverFn deliver_;
};

}  // namespace pftk::sim
