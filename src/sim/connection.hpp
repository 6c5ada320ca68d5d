// A complete simulated TCP connection: saturated Reno sender, forward
// data path, receiver, and reverse ACK path, driven by one event queue.
//
// This is the reproduction's stand-in for the paper's Internet host
// pairs: each experiment instantiates a Connection from a path profile
// (delays, loss process, queueing) and runs it for 1 hour or 100 s.
//
// A connection can be saved and restored (the model checker resumes
// each branch from a snapshot instead of replaying it from t = 0). A
// snapshot holds every component's state by value and none of its
// wiring: the callbacks in the saved queue capture this connection's
// components, so a snapshot restores only into the connection that took
// it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <variant>

#include "obs/conn_event_trace.hpp"
#include "obs/event_loop_stats.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariants.hpp"
#include "sim/link.hpp"
#include "sim/loss_model.hpp"
#include "sim/queue_policy.hpp"
#include "sim/rng.hpp"
#include "sim/sim_watchdog.hpp"
#include "sim/tcp_receiver.hpp"
#include "sim/tcp_reno_sender.hpp"

namespace pftk::sim {

/// Declarative loss-process choice, so path profiles are plain data.
struct NoLossSpec {};
struct BernoulliLossSpec {
  double p = 0.01;
};
struct BurstLossSpec {
  double p = 0.01;            ///< fresh-episode probability per packet
  Duration duration = 0.1;    ///< seconds each loss episode lasts
};
struct MixedBurstLossSpec {
  double p = 0.01;               ///< fresh-loss probability per packet
  double single_fraction = 0.3;  ///< fraction of losses that are single drops
  Duration episode_mean = 0.5;   ///< mean of the exponential excess length
  Duration episode_min = 0.0;    ///< floor added to every episode
};
struct GilbertElliottLossSpec {
  double p_good_to_bad = 0.005;
  double p_bad_to_good = 0.5;
  double loss_in_bad = 1.0;
};
/// Externally decided loss (see OracleLoss): the callback is consulted
/// once per offered packet and the link's Rng is never touched. Not
/// plain data — only programmatic clients (the model-checking explorer,
/// tests) construct it; profile parsing never produces one.
struct OracleLossSpec {
  std::function<bool(Time)> oracle;
};
using LossSpec = std::variant<NoLossSpec, BernoulliLossSpec, BurstLossSpec,
                              MixedBurstLossSpec, GilbertElliottLossSpec,
                              OracleLossSpec>;

/// Builds a concrete loss model from a spec (nullptr for NoLossSpec).
[[nodiscard]] std::unique_ptr<LossModel> make_loss_model(const LossSpec& spec);

/// Declarative queue-policy choice for rate-limited links.
struct NoQueueSpec {};
struct DropTailSpec {
  std::size_t capacity = 20;
};
struct RedSpec {
  RedPolicy::Config config;
};
using QueueSpec = std::variant<NoQueueSpec, DropTailSpec, RedSpec>;

/// Builds a concrete queue policy from a spec (nullptr for NoQueueSpec).
[[nodiscard]] std::unique_ptr<QueuePolicy> make_queue_policy(const QueueSpec& spec);

/// Everything needed to instantiate one connection.
struct ConnectionConfig {
  TcpRenoSenderConfig sender;
  TcpReceiverConfig receiver;
  LinkConfig forward_link;   ///< data direction
  LinkConfig reverse_link;   ///< ACK direction
  LossSpec forward_loss = NoLossSpec{};
  LossSpec reverse_loss = NoLossSpec{};  ///< ACK loss
  QueueSpec forward_queue = NoQueueSpec{};
  /// Scheduled impairments per direction (empty = no fault layer). The
  /// reverse schedule is how ACK-path faults (e.g. ACK blackouts) are
  /// expressed.
  FaultSchedule forward_faults;
  FaultSchedule reverse_faults;
  std::uint64_t seed = 1;
  /// Interpose a runtime InvariantChecker (invariants.hpp) between the
  /// sender and any user observer. On by default: checking is passive
  /// and byte-invisible, and a violation is a bug worth a loud throw.
  bool check_invariants = true;
};

/// End-of-run roll-up.
struct ConnectionSummary {
  double duration = 0.0;               ///< seconds simulated
  std::uint64_t packets_sent = 0;      ///< transmissions incl. retransmissions
  std::uint64_t packets_delivered = 0; ///< receiver's in-order cumulative point
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  double send_rate = 0.0;        ///< packets_sent / duration
  double throughput = 0.0;       ///< packets_delivered / duration
  FaultStats forward_faults;     ///< injected-impairment counters (data path)
  FaultStats reverse_faults;     ///< injected-impairment counters (ACK path)
};

/// Owns and wires a sender/receiver pair over lossy links.
class Connection {
 public:
  /// Every component's state at one moment (see the file comment).
  struct State {
    const Connection* origin = nullptr;  ///< the connection that saved it
    bool started = false;
    EventQueue::State queue;
    TcpRenoSender::State sender;
    InvariantChecker::State invariants;
    TcpReceiver::State receiver;
    Link<Segment>::State forward;
    Link<Ack>::State reverse;
  };

  /// @throws std::invalid_argument on invalid sub-configs.
  explicit Connection(const ConnectionConfig& config);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Copies the connection's state into `out`, reusing its buffers. Call
  /// it between events (from the queue's inspector, or outside a run).
  /// @throws std::logic_error with a watchdog enabled (its state is not
  ///         part of a snapshot).
  void save(State& out) const;

  /// Puts back a state save() took from this connection: the connection
  /// then runs on exactly as it did from there.
  /// @throws std::logic_error for a state saved by another connection.
  void restore(const State& state);

  /// Attaches a sender observer (e.g. a trace recorder). Must be called
  /// before run_for(); may be nullptr.
  void set_observer(SenderObserver* observer) noexcept;

  /// Attaches observability sinks to every layer at once: the sender,
  /// receiver, watchdog (now or when later enabled), and both links'
  /// fault injectors record into `trace`; the event queue counts into
  /// `loop_stats`. Either may be nullptr to skip/detach. Attaching is
  /// purely passive — fixed-seed runs stay byte-identical.
  void attach_observability(obs::ConnEventTrace* trace,
                            obs::EventLoopStats* loop_stats = nullptr) noexcept;

  /// Arms a watchdog over this connection's queue and sender. Subsequent
  /// run_for() calls throw WatchdogError (with a diagnostic snapshot)
  /// instead of hanging or corrupting state when a budget, stall, or
  /// invariant check fails.
  void enable_watchdog(const WatchdogConfig& config = {});

  /// Runs the connection for `duration` seconds of simulated time and
  /// returns the roll-up. May be called repeatedly to extend the run.
  /// @throws WatchdogError if an enabled watchdog trips mid-run.
  ConnectionSummary run_for(Duration duration);

  /// run_for up to the absolute simulated time `end`.
  ConnectionSummary run_until(Time end);

  [[nodiscard]] const TcpRenoSender& sender() const noexcept { return *sender_; }
  /// The always-on invariant checker (nullptr when disabled via config).
  [[nodiscard]] const InvariantChecker* invariants() const noexcept {
    return invariants_.get();
  }
  [[nodiscard]] const TcpReceiver& receiver() const noexcept { return *receiver_; }
  [[nodiscard]] const Link<Segment>& forward_link() const noexcept { return *forward_; }
  [[nodiscard]] const Link<Ack>& reverse_link() const noexcept { return *reverse_; }
  /// Mutable link access (the explorer installs fault-order oracles and
  /// loss choice points after construction).
  [[nodiscard]] Link<Segment>& mutable_forward_link() noexcept { return *forward_; }
  [[nodiscard]] Link<Ack>& mutable_reverse_link() noexcept { return *reverse_; }
  [[nodiscard]] EventQueue& event_queue() noexcept { return queue_; }
  [[nodiscard]] const EventQueue& event_queue() const noexcept { return queue_; }

 private:
  EventQueue queue_;
  std::unique_ptr<TcpRenoSender> sender_;
  std::unique_ptr<InvariantChecker> invariants_;
  std::unique_ptr<TcpReceiver> receiver_;
  std::unique_ptr<Link<Segment>> forward_;
  std::unique_ptr<Link<Ack>> reverse_;
  std::unique_ptr<SimWatchdog> watchdog_;
  obs::ConnEventTrace* etrace_ = nullptr;  ///< reapplied if the watchdog is
                                           ///< enabled after attachment
  bool started_ = false;
};

}  // namespace pftk::sim
