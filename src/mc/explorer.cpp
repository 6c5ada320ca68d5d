#include "mc/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/full_model.hpp"
#include "core/model_terms.hpp"
#include "core/tcp_model_params.hpp"
#include "obs/flight/flight_recorder.hpp"
#include "sim/connection.hpp"

namespace pftk::mc {

namespace {

/// digest -> largest remaining depth budget seen at that state. A
/// revisit with no more remaining depth than recorded cannot reach
/// anything new (bounded-DFS soundness condition for visited-state
/// pruning).
using VisitedTable = std::unordered_map<McDigest, std::uint32_t, McDigestHash>;

void require(bool ok, const char* message) {
  if (!ok) {
    throw std::invalid_argument(message);
  }
}

/// Assumption checks from the paper's model (MODELS.md maps each to the
/// equation that needs it), verified at the end of every branch.
void builtin_assumption_checks(const BranchContext& ctx) {
  const sim::TcpRenoSender& sender = ctx.conn.sender();
  const auto& st = sender.stats();

  // Every transmission is a first send or a retransmission — the split
  // the loss-indication estimate p = indications/sent relies on.
  if (st.transmissions != st.new_segments + st.retransmissions) {
    std::ostringstream os;
    os << "transmissions=" << st.transmissions << " != new=" << st.new_segments
       << " + rtx=" << st.retransmissions;
    throw PropertyViolation("acct.transmissions", os.str());
  }

  // Each TD (fast retransmit) and TO (timer expiration) loss indication
  // causes at least one retransmission — the TD/TO classification both
  // validation pipelines count on.
  if (st.retransmissions < st.fast_retransmits + st.timeouts) {
    std::ostringstream os;
    os << "rtx=" << st.retransmissions << " < td=" << st.fast_retransmits
       << " + to=" << st.timeouts;
    throw PropertyViolation("acct.loss_indications", os.str());
  }

  // Cumulative ACKs cannot acknowledge data the receiver never had.
  if (sender.snd_una() > ctx.conn.receiver().next_expected()) {
    std::ostringstream os;
    os << "snd_una=" << sender.snd_una()
       << " > receiver next_expected=" << ctx.conn.receiver().next_expected();
    throw PropertyViolation("acct.cumulative_ack", os.str());
  }

  // The receiver-window clamp of eqs 20/24: never more than Wm unacked.
  if (static_cast<double>(sender.in_flight()) > ctx.config.window + 1e-9) {
    std::ostringstream os;
    os << "in_flight=" << sender.in_flight() << " > Wm=" << ctx.config.window;
    throw PropertyViolation("window.flight_cap", os.str());
  }

  if (ctx.completed) {
    // A finished transfer delivered each packet exactly once as a first
    // transmission and acknowledged all of them.
    if (st.new_segments != ctx.config.packets ||
        sender.snd_una() != ctx.config.packets ||
        ctx.conn.receiver().next_expected() != ctx.config.packets) {
      std::ostringstream os;
      os << "completed transfer accounting off: new=" << st.new_segments
         << " snd_una=" << sender.snd_una()
         << " delivered=" << ctx.conn.receiver().next_expected()
         << " expected=" << ctx.config.packets;
      throw PropertyViolation("complete.delivery", os.str());
    }
  }

  // Model evaluability at the observed loss rate: the full model's E[W]
  // floor (eq 13 feeding eqs 20/24 through max(E[W], 1)) must hold and
  // the send rate must come out finite and positive for every loss rate
  // this branch can exhibit.
  const double indications = static_cast<double>(st.fast_retransmits + st.timeouts);
  if (indications > 0.0 && st.transmissions > 0) {
    model::ModelParams params;
    params.p = std::min(0.95, indications / static_cast<double>(st.transmissions));
    params.rtt = 2.0 * ctx.config.one_way_delay;
    params.t0 = ctx.config.min_rto;
    params.b = ctx.config.ack_every;
    params.wm = ctx.config.window;
    const double ew = model::expected_unconstrained_window(params.p, params.b);
    if (!(ew >= 1.0)) {
      std::ostringstream os;
      os << "E[Wu](p=" << params.p << ", b=" << params.b << ") = " << ew << " < 1";
      throw PropertyViolation("model.window_floor", os.str());
    }
    const double rate = model::full_model_send_rate(params);
    if (!std::isfinite(rate) || !(rate > 0.0)) {
      std::ostringstream os;
      os << "full model not evaluable at observed p=" << params.p << ": rate=" << rate;
      throw PropertyViolation("model.evaluable", os.str());
    }
  }
}

/// Backtracks a finished branch's path in place: bumps its deepest
/// choice at index >= floor that has an alternative left and drops the
/// choices after it. False when none has: the subtree is done.
bool next_path(std::vector<Choice>& path, std::size_t floor) {
  for (std::size_t i = path.size(); i > floor; --i) {
    Choice& c = path[i - 1];
    if (static_cast<std::size_t>(c.chosen) + 1 < c.arity) {
      ++c.chosen;
      path.resize(i);
      return true;
    }
  }
  return false;
}

}  // namespace

void ExploreConfig::validate() const {
  require(packets >= 1 && packets <= 64, "ExploreConfig: packets must be in [1, 64]");
  require(window >= 1.0 && std::isfinite(window),
          "ExploreConfig: window must be >= 1");
  require(ack_every >= 1, "ExploreConfig: ack_every must be >= 1");
  require(one_way_delay > 0.0 && std::isfinite(one_way_delay),
          "ExploreConfig: one_way_delay must be > 0");
  require(min_rto > 0.0 && std::isfinite(min_rto),
          "ExploreConfig: min_rto must be > 0");
  require(time_cap > 0.0 && std::isfinite(time_cap),
          "ExploreConfig: time_cap must be > 0");
  require(tie_width != 1, "ExploreConfig: tie_width must be 0 (off) or >= 2");
  require(tie_width <= sim::EventQueue::kMaxTieFanout,
          "ExploreConfig: tie_width exceeds the event queue's tie fanout");
  require(depth >= 1, "ExploreConfig: depth must be >= 1");
  require(threads >= 1, "ExploreConfig: threads must be >= 1");
  if (!fault_schedule.empty()) {
    sim::FaultSchedule::parse(fault_schedule).validate();  // throws on bad spec
  }
}

std::string ExploreConfig::describe() const {
  std::ostringstream os;
  os << "packets=" << packets << " window=" << window << " ack_every=" << ack_every
     << " loss_choices=" << loss_choices << " ack_loss=" << (ack_loss ? 1 : 0)
     << " tie_width=" << tie_width << " tie_choices=" << tie_choices
     << " faults=" << (fault_schedule.empty() ? "-" : fault_schedule)
     << " depth=" << depth << " prune=" << (prune_visited ? 1 : 0)
     << " split_depth=" << split_depth << " seed=" << seed;
  return os.str();
}

ExploreStats& ExploreStats::operator+=(const ExploreStats& other) noexcept {
  states += other.states;
  branches += other.branches;
  terminals += other.terminals;
  pruned += other.pruned;
  truncated += other.truncated;
  violations += other.violations;
  return *this;
}

struct Explorer::Rig {
  Rig(const ExploreConfig& config, ChoiceSource& choices)
      : cfg(config), source(choices), conn(connection_config()) {
    // Fault-order nondeterminism: when several specs are active at once,
    // branch on which rotation applies them.
    if (sim::FaultInjector* faults = conn.mutable_forward_link().mutable_faults()) {
      faults->set_order_oracle([this](std::size_t active) -> std::size_t {
        return active < 2 ? 0 : source.choose(ChoiceKind::kFaultOrder, active);
      });
    }
    // Timing nondeterminism: branch on the dispatch order of tied events.
    if (cfg.tie_width >= 2) {
      conn.event_queue().set_tie_breaker([this](std::size_t tied) -> std::size_t {
        if (ties_used >= cfg.tie_choices) {
          return 0;  // budget spent: FIFO
        }
        const std::size_t arity = std::min<std::size_t>(tied, cfg.tie_width);
        if (arity < 2) {
          return 0;
        }
        ++ties_used;
        return source.choose(ChoiceKind::kTieBreak, arity);
      });
    }
    // Stop as soon as the transfer completes (run_until would idle
    // through the remaining delayed-ACK heartbeats otherwise); otherwise
    // the boundary is the search's to use.
    conn.event_queue().set_inspector([this] {
      if (conn.sender().complete()) {
        conn.event_queue().request_stop();
      } else if (on_boundary) {
        on_boundary();
      }
    });
  }

  sim::ConnectionConfig connection_config() {
    sim::ConnectionConfig c;
    c.sender.initial_cwnd = 1.0;
    c.sender.advertised_window = cfg.window;
    c.sender.initial_rto = cfg.min_rto;
    c.sender.min_rto = cfg.min_rto;
    c.sender.timer_tick = 0.0;  // exact timers: no tick rounding noise
    c.sender.total_packets = cfg.packets;
    c.receiver.ack_every = cfg.ack_every;
    c.forward_link.propagation_delay = cfg.one_way_delay;
    c.reverse_link.propagation_delay = cfg.one_way_delay;
    c.seed = cfg.seed;
    c.check_invariants = true;  // the live Reno state-machine checker
    // Loss nondeterminism: each offered packet is one binary choice point
    // until the branch's budget runs out; after that the oracle delivers
    // deterministically, so every branch is finite by construction.
    c.forward_loss = sim::OracleLossSpec{
        [this](sim::Time) { return drop(ChoiceKind::kForwardLoss); }};
    if (cfg.ack_loss) {
      c.reverse_loss = sim::OracleLossSpec{
          [this](sim::Time) { return drop(ChoiceKind::kAckLoss); }};
    }
    if (!cfg.fault_schedule.empty()) {
      c.forward_faults = sim::FaultSchedule::parse(cfg.fault_schedule);
    }
    return c;
  }

  bool drop(ChoiceKind kind) {
    if (loss_used >= cfg.loss_choices) {
      return false;
    }
    ++loss_used;
    return source.choose(kind, 2) == 1;
  }

  /// Whether the next event can make a fresh choice: any event may offer
  /// a packet while a loss budget is left, or meet overlapping faults,
  /// whose order has no budget; a tie choice comes only with a tied
  /// dispatch.
  [[nodiscard]] bool choice_ahead() const noexcept {
    if (loss_used < cfg.loss_choices || !cfg.fault_schedule.empty()) {
      return true;
    }
    return cfg.tie_width >= 2 && ties_used < cfg.tie_choices &&
           conn.event_queue().next_is_tied();
  }

  const ExploreConfig& cfg;
  ChoiceSource& source;
  std::uint32_t loss_used = 0;
  std::uint32_t ties_used = 0;
  std::function<void()> on_boundary;  ///< at each event boundary before completion
  std::vector<sim::Time> scratch;     ///< digest buffer
  sim::Connection conn;
};

Explorer::Explorer(ExploreConfig config) : config_(std::move(config)) {
  config_.validate();
}

void Explorer::add_property(std::string name, Property property) {
  if (!property) {
    throw std::invalid_argument("Explorer::add_property: property must be callable");
  }
  properties_.emplace_back(std::move(name), std::move(property));
}

std::optional<Explorer::BranchEnd> Explorer::run_branch(Rig& rig,
                                                         const std::vector<Choice>& path) {
  sim::Connection& conn = rig.conn;
  BranchEnd end;
  try {
    // To the absolute cap: a resumed branch ends where a replayed one does.
    (void)conn.run_until(config_.time_cap);
  } catch (const sim::InvariantViolation& e) {
    end.violated = true;
    end.check = e.check();
    end.message = e.what();
  }
  if (rig.source.stopped()) {
    // Pruned or cut at a choice point: the branch ends there. Whatever
    // the rest of that event did, a violation included, is not part of
    // the search.
    return std::nullopt;
  }
  end.completed = conn.sender().complete();

  if (!end.violated) {
    const BranchContext ctx{conn, config_, end.completed, path};
    try {
      builtin_assumption_checks(ctx);
      for (const auto& [name, property] : properties_) {
        property(ctx);
      }
    } catch (const PropertyViolation& e) {
      end.violated = true;
      end.check = e.check();
      end.message = e.what();
    }
  }

  // Digest of wherever the branch stopped (completion, time cap, or the
  // violation point) — what a replay must reproduce bit-for-bit.
  end.digest = digest_connection(conn, rig.scratch);
  return end;
}

Explorer::ExpansionOutcome Explorer::expand_frontier(const std::atomic<bool>* stop) {
  ExpansionOutcome out;
  std::vector<Choice> current;
  while (true) {
    if (stop != nullptr && stop->load()) {
      out.interrupted = true;
      return out;
    }
    if (config_.max_states != 0 && out.stats.states >= config_.max_states) {
      out.incomplete = true;
      return out;
    }
    // Stateless: each branch is a fresh connection replaying `current`.
    // No pruning above the frontier: the partition must be a fixed
    // function of the config so state counts are thread-count-invariant.
    // A branch that reaches the split depth is cut there (a kPrune
    // verdict) and becomes a parallel job.
    ScriptedChoices source(current);
    std::optional<BranchEnd> end;
    {
      PFTK_SPAN("mc.branch");
      Rig rig(config_, source);
      source.set_hook(
          [this, &out](ChoiceKind, std::size_t, std::size_t depth) -> NodeVerdict {
            // The depth budget applies above the frontier too — a
            // split_depth larger than the budget must not smuggle extra
            // enumeration in.
            if (depth >= config_.depth) {
              return NodeVerdict::kTruncate;
            }
            if (depth >= config_.split_depth) {
              return NodeVerdict::kPrune;
            }
            ++out.stats.states;
            return NodeVerdict::kExplore;
          },
          &rig.conn.event_queue());
      end = run_branch(rig, source.path());
    }
    if (!end) {
      out.jobs.push_back(source.path());
    } else {
      ++out.stats.branches;
      ++out.stats.terminals;
      if (source.truncated()) {
        ++out.stats.truncated;
        out.incomplete = true;
      }
      if (end->violated) {
        ++out.stats.violations;
        out.violations.push_back(
            Violation{source.path(), end->check, end->message, end->digest});
        return out;
      }
    }
    current = source.path();
    if (!next_path(current, 0)) {
      return out;  // frontier fully enumerated
    }
  }
}

bool Explorer::StateBudget::spent(std::size_t job, std::uint64_t own) const noexcept {
  std::uint64_t seen = expansion + own;
  for (std::size_t j = 0; j < job; ++j) {
    seen += jobs[j].load(std::memory_order_relaxed);
  }
  return seen >= max;
}

Explorer::SubtreeOutcome Explorer::explore_subtree(
    std::size_t job, const std::vector<Choice>& root, const std::atomic<bool>* stop,
    std::atomic<std::size_t>& first_violation, StateBudget& budget) {
  SubtreeOutcome out;
  VisitedTable visited;
  ScriptedChoices source(root);
  Rig rig(config_, source);
  sim::Connection& conn = rig.conn;

  // The DFS stack: frames[0, kept) hold one snapshot per event that
  // recorded a fresh choice, oldest first, each taken at the boundary
  // before its event with the choice cursor and budgets there.
  // frames[kept] holds the latest boundary's save until a fresh choice in
  // the next event keeps it.
  struct Frame {
    std::size_t cursor = 0;
    std::uint32_t loss_used = 0;
    std::uint32_t ties_used = 0;
    sim::Connection::State state;
  };
  std::vector<Frame> frames;
  std::size_t kept = 0;
  bool pending = false;
  const auto save = [&] {
    if (frames.size() == kept) {
      frames.emplace_back();
    }
    Frame& frame = frames[kept];
    frame.cursor = source.cursor();
    frame.loss_used = rig.loss_used;
    frame.ties_used = rig.ties_used;
    conn.save(frame.state);
    pending = true;
  };
  rig.on_boundary = [&] {
    // Never once the source stopped: a pruned event's stop request must
    // not end up in a snapshot.
    pending = false;
    if (!source.stopped() && !source.truncated() && source.path().size() < config_.depth &&
        rig.choice_ahead()) {
      save();
    }
  };
  source.set_hook(
      [&](ChoiceKind, std::size_t, std::size_t depth) -> NodeVerdict {
        if (depth >= config_.depth) {
          return NodeVerdict::kTruncate;
        }
        if (config_.prune_visited) {
          const McDigest digest = digest_connection(conn, rig.scratch);
          const auto remaining = static_cast<std::uint32_t>(config_.depth - depth);
          auto [it, inserted] = visited.try_emplace(digest, remaining);
          if (!inserted) {
            if (it->second >= remaining) {
              return NodeVerdict::kPrune;
            }
            it->second = remaining;  // revisit with more headroom: go deeper
          }
        }
        ++out.stats.states;
        if (pending) {
          ++kept;  // this event's boundary save becomes a frame
          pending = false;
        }
        return NodeVerdict::kExplore;
      },
      &conn.event_queue());

  // The first branch runs from t = 0, replaying the root. Choices made in
  // TcpRenoSender::start() or the first event belong to the unstarted
  // connection: no inspector runs before the first event ends.
  save();
  std::vector<Choice> path;
  bool resume = false;
  while (true) {
    if (stop != nullptr && stop->load()) {
      out.interrupted = true;
      return out;
    }
    if (first_violation.load(std::memory_order_relaxed) < job) {
      return out;  // an earlier job found a counterexample: this one is moot
    }
    if (config_.max_states != 0 && budget.spent(job, out.stats.states)) {
      out.incomplete = true;
      return out;
    }
    std::optional<BranchEnd> end;
    {
      PFTK_SPAN("mc.branch");
      if (resume) {
        const Frame& frame = frames[kept - 1];
        conn.restore(frame.state);
        rig.loss_used = frame.loss_used;
        rig.ties_used = frame.ties_used;
        source.restart(path, frame.cursor);
        pending = false;
      }
      end = run_branch(rig, source.path());
    }
    ++out.stats.branches;
    if (!end) {
      ++out.stats.pruned;
    } else {
      ++out.stats.terminals;
      if (source.truncated()) {
        ++out.stats.truncated;
        out.incomplete = true;
      }
      if (end->violated) {
        ++out.stats.violations;
        out.violations.push_back(
            Violation{source.path(), end->check, end->message, end->digest});
      }
    }
    if (config_.max_states != 0) {
      budget.jobs[job].store(out.stats.states, std::memory_order_relaxed);
      if (out.checkpoints.empty() || out.checkpoints.back().states != out.stats.states) {
        out.checkpoints.push_back(out.stats);
      }
    }
    if (!out.violations.empty()) {
      // Later jobs stop; earlier ones run on. What is merged, every
      // job before this one and this one up to here, is what -j 1
      // finds.
      std::size_t seen = first_violation.load(std::memory_order_relaxed);
      while (job < seen && !first_violation.compare_exchange_weak(seen, job)) {
      }
      return out;
    }

    path = source.path();
    if (!next_path(path, root.size())) {
      return out;  // subtree exhausted
    }
    // Resume from the frame of the event that made the bumped choice: the
    // last one that starts at or before it.
    while (kept > 0 && frames[kept - 1].cursor >= path.size()) {
      --kept;
    }
    if (kept == 0) {
      throw std::logic_error("Explorer: no snapshot holds the bumped choice");
    }
    resume = true;
  }
}

void Explorer::cut_at_budget(std::uint64_t seen, std::vector<SubtreeOutcome>& outcomes) const {
  for (SubtreeOutcome& outcome : outcomes) {
    // -j 1 starts a branch of this job only while the states so far stay
    // below the budget, so it stops after the first branch that reaches it.
    const std::uint64_t left = seen >= config_.max_states ? 0 : config_.max_states - seen;
    const auto& cps = outcome.checkpoints;
    const auto at = std::find_if(cps.begin(), cps.end(),
                                 [left](const ExploreStats& s) { return s.states >= left; });
    if (left == 0) {
      const bool interrupted = outcome.interrupted;
      outcome = SubtreeOutcome{};
      outcome.incomplete = true;
      outcome.interrupted = interrupted;
    } else if (at != cps.end() && at->branches < outcome.stats.branches) {
      outcome.stats = *at;
      outcome.violations.clear();
      outcome.incomplete = true;
    }
    seen += outcome.stats.states;
  }
}

ExploreResult Explorer::run(const std::atomic<bool>* stop) {
  ExploreResult result;

  // Phase 1: single-threaded expansion to the fixed split frontier. The
  // job list depends only on the config, never on the thread count.
  ExpansionOutcome expansion = expand_frontier(stop);
  result.stats += expansion.stats;
  for (auto& violation : expansion.violations) {
    result.violations.push_back(std::move(violation));
  }
  bool incomplete = expansion.incomplete;
  bool interrupted = expansion.interrupted;
  result.jobs = expansion.jobs.size();

  // Phase 2: explore each frontier subtree (own visited table each);
  // merge in job order so results are scheduling-independent. A
  // counterexample in job k ends the search at job k: later jobs stop
  // and are left out of the merge, as they never start at -j 1.
  if (result.violations.empty() && !interrupted && !expansion.jobs.empty()) {
    const auto& jobs = expansion.jobs;
    std::vector<SubtreeOutcome> outcomes(jobs.size());
    std::atomic<std::size_t> first_violation{jobs.size()};
    StateBudget budget{config_.max_states, expansion.stats.states,
                       std::vector<std::atomic<std::uint64_t>>(jobs.size())};
    const auto worker_count = static_cast<std::size_t>(
        std::min<std::size_t>(static_cast<std::size_t>(config_.threads), jobs.size()));
    if (worker_count <= 1) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        outcomes[i] = explore_subtree(i, jobs[i], stop, first_violation, budget);
      }
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> workers;
      workers.reserve(worker_count);
      for (std::size_t w = 0; w < worker_count; ++w) {
        workers.emplace_back([this, &jobs, &outcomes, &next, stop, &first_violation, &budget] {
          while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size()) {
              return;
            }
            outcomes[i] = explore_subtree(i, jobs[i], stop, first_violation, budget);
          }
        });
      }
      for (std::thread& worker : workers) {
        worker.join();
      }
    }
    outcomes.resize(std::min(outcomes.size(), first_violation.load() + 1));
    if (config_.max_states != 0) {
      cut_at_budget(expansion.stats.states, outcomes);
    }
    for (auto& outcome : outcomes) {
      result.stats += outcome.stats;
      for (auto& violation : outcome.violations) {
        result.violations.push_back(std::move(violation));
      }
      incomplete = incomplete || outcome.incomplete;
      interrupted = interrupted || outcome.interrupted;
    }
  }

  result.interrupted = interrupted;
  result.complete = !incomplete && !interrupted && result.violations.empty();
  return result;
}

ReplayOutcome Explorer::replay(const std::vector<Choice>& choices) {
  ReplayOutcome outcome;
  ReplayChoices source(choices);
  try {
    std::optional<BranchEnd> end;
    {
      PFTK_SPAN("mc.branch");
      Rig rig(config_, source);
      end = run_branch(rig, choices);  // a replay never stops
    }
    if (!source.done()) {
      std::ostringstream os;
      os << "choice divergence: " << choices.size() - source.consumed()
         << " recorded choice(s) never consumed";
      outcome.diverged = true;
      outcome.message = os.str();
      return outcome;
    }
    outcome.violated = end->violated;
    outcome.check = end->check;
    outcome.message = end->message;
    outcome.digest = end->digest;
  } catch (const ChoiceDivergence& e) {
    outcome.diverged = true;
    outcome.message = e.what();
  }
  return outcome;
}

}  // namespace pftk::mc
