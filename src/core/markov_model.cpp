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

/// The least whole j >= from with f(j) >= target, for a nondecreasing f
/// that reaches target: gallop up, then bisect.
template <typename F>
double first_reaching(const F& f, double from, double target) {
  double lo = from;
  double hi = from;
  for (double step = 1.0; f(hi) < target; step *= 2.0) {
    lo = hi;
    hi = from + step;
  }
  while (hi - lo > 1.0) {
    const double mid = std::floor(lo + (hi - lo) / 2.0);
    if (f(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

StateRow build_row(const ModelParams& params, const StateSpace& space,
                   bool slow_start_mode, int w_param) {
  const double p = params.p;
  const double er = expected_timeouts_in_sequence(p);                    // E[R]
  const double ezto = expected_timeout_sequence_duration(p, params.t0);  // E[Z^TO]
  const int wm = std::min(space.num_windows, static_cast<int>(std::floor(params.wm)));
  const double log_keep = std::log1p(-p);  // log P[one packet is not lost]
  // The window in round j (1-based), in closed form so a row never walks
  // its rounds one at a time: congestion avoidance opens at w_param and
  // grows 1/b per round; slow start opens at 1 and grows by gamma per
  // round up to the threshold w_param (geo_rounds rounds), then 1/b per
  // round.
  const double b = static_cast<double>(params.b);
  const double gamma = 1.0 + 1.0 / b;
  const double base = static_cast<double>(w_param);
  const double geo_rounds =
      slow_start_mode
          ? first_reaching([gamma](double k) { return std::pow(gamma, k); }, 0.0, base)
          : 0.0;
  const auto window = [&](double j) {
    return j - 1.0 < geo_rounds ? std::pow(gamma, j - 1.0) : base + (j - 1.0 - geo_rounds) / b;
  };

  StateRow row;
  row.next.assign(space.size(), 0.0);
  // Books loss indications that end the TDP at window w_end, with total
  // probability `weight` and probability-weighted sums `y_sum` of Y
  // (packets) and `a_sum` of A (seconds).
  const auto add_loss = [&](double weight, double y_sum, double a_sum, int w_end) {
    const double qh = q_hat_exact(p, static_cast<double>(w_end));
    row.expected_packets += y_sum + weight * qh * er;
    row.expected_seconds += a_sum + weight * qh * ezto;
    row.q_acc += weight * qh;
    // Next TDP: half the window after a TD (congestion avoidance), or
    // slow start toward half the window after a timeout sequence.
    const int w_half = std::max(1, w_end / 2);
    row.next[space.ca_index(w_half)] += weight * (1.0 - qh);
    row.next[space.ss_index(std::max(2, w_half))] += weight * qh;
  };

  // Walk the TDP a run of rounds at a time: the rounds j .. j+n-1 all
  // send s packets and would all end the TDP at window w_end, so their
  // losses sum in closed form. A round survives with q = (1-p)^s.
  double survival = 1.0;        // P[no loss before round j]
  double packets_before = 0.0;  // packets sent in rounds 1..j-1
  double j = 1.0;
  for (int runs = 0; survival > 1e-14; ++runs) {
    if (runs > 1000000) {
      throw std::runtime_error("markov_model: loss-round loop failed to terminate");
    }
    const double wj = window(j);
    if (wj >= static_cast<double>(wm)) {
      // The window is pinned at wm from round j on, so every later round
      // repeats this one with wm more packets before it and one more
      // RTT. Sum rounds j, j+1, ... as a geometric series: with L =
      // P[loss in a round], E[later rounds] = (1-L)/L, and the packets
      // up to the first loss, counted from round j's first packet, are
      // geometric with mean 1/p. expm1/log1p keep L > 0 for p near
      // DBL_MIN, where (1-p)^wm rounds to 1.
      const double loss_round = -std::expm1(static_cast<double>(wm) * log_keep);
      const double later_rounds = (1.0 - loss_round) / loss_round;
      add_loss(survival,
               survival * (packets_before + 1.0 / p + static_cast<double>(wm) - 1.0),
               survival * (j + 1.0 + later_rounds) * params.rtt, wm);
      break;
    }
    // The floor window s holds through round `last`; only a loss in that
    // round ends the TDP at the next round's window.
    const int s = static_cast<int>(std::floor(wj));
    const double last = first_reaching(window, j + 1.0, s + 1.0) - 1.0;
    const double n = last > j ? last - j : 1.0;
    const int w_end =
        last > j ? s : std::min(wm, static_cast<int>(std::floor(window(j + 1.0))));
    const double log_q = static_cast<double>(s) * log_keep;
    const double loss_round = -std::expm1(log_q);    // 1 - q
    const double loss_run = -std::expm1(n * log_q);  // 1 - q^n
    const double keep_run = std::exp(n * log_q);     // q^n
    if (loss_round > 0.0) {
      const double q = std::exp(log_q);
      const double weight = survival * loss_run;
      // sum_{k<n} k q^k (1-q): the loss-free rounds before the losing
      // one, weighted by its probability.
      const double rounds_waited = survival * (q * (loss_run / loss_round) - n * keep_run);
      // E[position of first loss within the round | a loss in the
      // round]: truncated geometric on {1..s}.
      const double mean_k = 1.0 / p - static_cast<double>(s) * q / loss_round;
      // Y = alpha + W' - 1 (Section II-A), alpha = packets before + K;
      // A spans X+1 rounds.
      add_loss(weight,
               weight * (packets_before + mean_k + static_cast<double>(w_end) - 1.0) +
                   static_cast<double>(s) * rounds_waited,
               (weight * (j + 1.0) + rounds_waited) * params.rtt, w_end);
    }
    packets_before += n * static_cast<double>(s);
    survival *= keep_run;
    j += n;
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
