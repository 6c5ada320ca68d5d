#include "core/markov_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/model_terms.hpp"

namespace pftk::model {

namespace {

/// Per-state precomputation: expected rewards and the sparse transition
/// row of the TDP-level chain.
///
/// States come in two modes:
///  * congestion-avoidance start (after a TD): the window opens at w0 and
///    grows by 1 every b rounds — the paper's TDP shape;
///  * slow-start start (after a timeout): the window opens at 1, grows by
///    the factor (1 + 1/b) per round up to the slow-start threshold, then
///    linearly — the post-timeout behaviour eq (32) approximates away.
struct StateRow {
  double expected_packets = 0.0;  ///< E[Y + Qhat * R | state]
  double expected_seconds = 0.0;  ///< E[A + Qhat * Z^TO | state]
  std::vector<double> next;       ///< transition probabilities over states
  double q_acc = 0.0;             ///< P[the ending loss indication is a TO]
};

struct StateSpace {
  int num_windows = 0;     ///< windows 1..num_windows per mode
  bool slow_start = true;  ///< whether TO states are modelled separately
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(slow_start ? 2 * num_windows : num_windows);
  }
  [[nodiscard]] std::size_t ca_index(int w0) const {
    return static_cast<std::size_t>(std::clamp(w0, 1, num_windows) - 1);
  }
  [[nodiscard]] std::size_t ss_index(int thresh) const {
    if (!slow_start) {
      return ca_index(1);  // fall back: timeouts restart CA at window 1
    }
    return static_cast<std::size_t>(num_windows) +
           static_cast<std::size_t>(std::clamp(thresh, 1, num_windows) - 1);
  }
};

/// The window the sender exhibits in round j (1-based) of a TDP.
double round_window(bool slow_start_mode, double start, double thresh, int j, int b,
                    double gamma) {
  if (!slow_start_mode) {
    return start + static_cast<double>(j - 1) / static_cast<double>(b);
  }
  // Slow start from `start` until `thresh`, then linear.
  double w = start;
  int rounds_left = j - 1;
  while (rounds_left > 0 && w < thresh) {
    w = std::min(w * gamma, thresh);
    --rounds_left;
  }
  return w + static_cast<double>(rounds_left) / static_cast<double>(b);
}

StateRow build_row(const ModelParams& params, const StateSpace& space,
                   bool slow_start_mode, int w_param) {
  const double p = params.p;
  const double er = expected_timeouts_in_sequence(p);                    // E[R]
  const double ezto = expected_timeout_sequence_duration(p, params.t0);  // E[Z^TO]
  const int wm = std::min(space.num_windows, static_cast<int>(std::floor(params.wm)));
  const double gamma = 1.0 + 1.0 / static_cast<double>(params.b);
  const double start = slow_start_mode ? 1.0 : static_cast<double>(w_param);
  const double thresh = slow_start_mode ? static_cast<double>(w_param) : 0.0;

  StateRow row;
  row.next.assign(space.size(), 0.0);
  // Books a loss indication that ends the TDP at window w_end, with
  // probability `weight`, Y = y packets and A = a seconds.
  const auto add_loss = [&](double weight, double y, double a, int w_end) {
    const double qh = q_hat_exact(p, static_cast<double>(w_end));
    row.expected_packets += weight * (y + qh * er);
    row.expected_seconds += weight * (a + qh * ezto);
    row.q_acc += weight * qh;
    // Next TDP: half the window after a TD (congestion avoidance), or
    // slow start toward half the window after a timeout sequence.
    const int w_half = std::max(1, w_end / 2);
    row.next[space.ca_index(w_half)] += weight * (1.0 - qh);
    row.next[space.ss_index(std::max(2, w_half))] += weight * qh;
  };

  double survival = 1.0;        // P[no loss before round j]
  double packets_before = 0.0;  // packets sent in rounds 1..j-1
  for (int j = 1; survival > 1e-14; ++j) {
    const double wj = round_window(slow_start_mode, start, thresh, j, params.b, gamma);
    const int sj = std::max(1, std::min(wm, static_cast<int>(std::floor(wj))));
    const double w_next = round_window(slow_start_mode, start, thresh, j + 1, params.b, gamma);
    if (sj == wm && w_next >= static_cast<double>(wm)) {
      // The window is pinned at wm from round j on (round_window never
      // decreases), so every later round repeats this one with wm more
      // packets before it and one more RTT. Sum rounds j, j+1, ... as a
      // geometric series instead of walking them: with L = P[loss in a
      // round], E[later rounds] = (1-L)/L, and the packets up to the
      // first loss, counted from round j's first packet, are geometric
      // with mean 1/p. expm1/log1p keep L > 0 for p near DBL_MIN, where
      // (1-p)^wm rounds to 1.
      const double loss_round = -std::expm1(static_cast<double>(wm) * std::log1p(-p));
      const double later_rounds = (1.0 - loss_round) / loss_round;
      add_loss(survival, packets_before + 1.0 / p + static_cast<double>(wm) - 1.0,
               (static_cast<double>(j + 1) + later_rounds) * params.rtt, wm);
      break;
    }
    const double q_no_loss_round = std::pow(1.0 - p, sj);
    const double prob_loss_here = survival * (1.0 - q_no_loss_round);
    if (prob_loss_here > 0.0) {
      const int w_end = std::max(1, std::min(wm, static_cast<int>(std::floor(w_next))));
      // E[position of first loss within the round | a loss in the round]:
      // truncated geometric on {1..sj}.
      const double denom = 1.0 - q_no_loss_round;
      const double mean_k = 1.0 / p - static_cast<double>(sj) * q_no_loss_round / denom;
      // Y = alpha + W' - 1 (Section II-A), alpha = packets_before + K;
      // A spans X+1 rounds.
      add_loss(prob_loss_here, packets_before + mean_k + static_cast<double>(w_end) - 1.0,
               static_cast<double>(j + 1) * params.rtt, w_end);
    }
    packets_before += static_cast<double>(sj);
    survival *= q_no_loss_round;
    if (j > 1000000) {
      throw std::runtime_error("markov_model: loss-round loop failed to terminate");
    }
  }

  // Distribute the residual survival mass (loss never observed within the
  // numerical horizon) onto the largest-window TD transition; its weight
  // is < 1e-14 and only keeps the row stochastic.
  const double mass = std::accumulate(row.next.begin(), row.next.end(), 0.0);
  row.next[space.ca_index(std::max(1, wm / 2))] += std::max(0.0, 1.0 - mass);
  return row;
}

}  // namespace

MarkovModelResult markov_model_solve(const ModelParams& params,
                                     const MarkovModelOptions& options) {
  params.validate();
  if (params.p <= 0.0) {
    throw std::invalid_argument("markov_model_solve: p must be > 0");
  }
  if (options.max_window_states < 4) {
    throw std::invalid_argument("markov_model_solve: max_window_states must be >= 4");
  }

  // State space: starting windows 1..num_windows per mode. When wm binds
  // it bounds the chain naturally; otherwise truncate above E[Wu].
  const double ewu = expected_unconstrained_window(params.p, params.b);
  StateSpace space;
  space.slow_start = options.model_slow_start;
  if (params.wm < static_cast<double>(options.max_window_states)) {
    space.num_windows = std::max(4, static_cast<int>(std::floor(params.wm)));
  } else {
    space.num_windows = std::min(options.max_window_states,
                                 std::max(16, static_cast<int>(std::ceil(8.0 * ewu))));
  }

  std::vector<StateRow> rows;
  rows.reserve(space.size());
  for (int w0 = 1; w0 <= space.num_windows; ++w0) {
    rows.push_back(build_row(params, space, /*slow_start_mode=*/false, w0));
  }
  if (space.slow_start) {
    for (int thresh = 1; thresh <= space.num_windows; ++thresh) {
      rows.push_back(build_row(params, space, /*slow_start_mode=*/true, thresh));
    }
  }

  // Power iteration for the stationary distribution.
  std::vector<double> pi(space.size(), 1.0 / static_cast<double>(space.size()));
  std::vector<double> next(pi.size(), 0.0);
  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < pi.size(); ++s) {
      const double mass = pi[s];
      if (mass == 0.0) {
        continue;
      }
      const auto& row = rows[s].next;
      for (std::size_t t = 0; t < row.size(); ++t) {
        next[t] += mass * row[t];
      }
    }
    double l1 = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) {
      l1 += std::abs(next[s] - pi[s]);
    }
    pi.swap(next);
    if (l1 < options.tolerance) {
      break;
    }
  }
  if (iter >= options.max_iterations) {
    throw std::runtime_error("markov_model_solve: power iteration did not converge");
  }

  MarkovModelResult result;
  result.iterations = iter + 1;
  result.stationary = pi;

  double packets = 0.0;
  double seconds = 0.0;
  double mean_w0 = 0.0;
  double timeout_prob = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    packets += pi[s] * rows[s].expected_packets;
    seconds += pi[s] * rows[s].expected_seconds;
    timeout_prob += pi[s] * rows[s].q_acc;
    const int w = static_cast<int>(s % static_cast<std::size_t>(space.num_windows)) + 1;
    const bool is_ss = s >= static_cast<std::size_t>(space.num_windows);
    mean_w0 += pi[s] * (is_ss ? 1.0 : static_cast<double>(w));
  }

  result.send_rate = packets / seconds;
  result.expected_start_window = mean_w0;
  result.timeout_fraction = timeout_prob;
  return result;
}

double markov_model_send_rate(const ModelParams& params, const MarkovModelOptions& options) {
  return markov_model_solve(params, options).send_rate;
}

}  // namespace pftk::model
