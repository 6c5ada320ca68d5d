// Extension — validating the window *distribution*, not just the mean.
// The Markov solver computes the stationary distribution of the TDP
// starting window; the simulator exposes the actual congestion window at
// every transmission. Comparing the two histograms checks the chain as a
// distributional model of TCP — much stronger than matching E[W] alone.
//
// Usage: ext_window_distribution [duration_seconds]   (default 2400)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/markov_model.hpp"
#include "core/model_terms.hpp"
#include "exp/table_format.hpp"
#include "sim/connection.hpp"
#include "trace/trace_recorder.hpp"
#include "trace/trace_summary.hpp"

int main(int argc, char** argv) {
  using namespace pftk;
  const double duration = argc > 1 ? std::atof(argv[1]) : 2400.0;

  // A mid-loss operating point with Bernoulli losses (matching the
  // chain's per-packet independence) and an unconstraining window.
  const double p = 0.02;
  sim::ConnectionConfig cfg;
  cfg.sender.advertised_window = 24.0;
  cfg.sender.min_rto = 1.0;
  cfg.forward_link.propagation_delay = 0.1;
  cfg.reverse_link.propagation_delay = 0.1;
  cfg.forward_loss = sim::BernoulliLossSpec{p};
  cfg.seed = 321;
  sim::Connection conn(cfg);
  trace::TraceRecorder rec;
  conn.set_observer(&rec);
  conn.run_for(duration);

  // Simulated time-average window occupancy, from per-send cwnd samples:
  // unit bins over [0.5, 24.5), bin w - 1 centred on window w. cwnd >= 1,
  // so the clamp to 24 is the only bound a sample can reach.
  std::vector<double> sim_bins(24, 0.0);
  double sends = 0.0;
  for (const auto& e : rec.events()) {
    if (e.type == trace::TraceEventType::kSegmentSent) {
      sim_bins[static_cast<std::size_t>(std::min(e.cwnd, 24.0) - 0.5)] += 1.0;
      sends += 1.0;
    }
  }

  const auto row = trace::summarize_trace(rec.events(), 3);
  model::ModelParams params;
  params.p = row.observed_p;
  params.rtt = row.avg_rtt;
  params.t0 = row.avg_timeout > 0.0 ? row.avg_timeout : 1.0;
  params.b = 2;
  params.wm = 24.0;
  const auto markov = model::markov_model_solve(params);

  std::cout << "Extension: window distribution, simulation vs Markov chain\n"
            << params.describe() << "  (measured from the trace)\n\n"
            << "E[W] closed form (eq 13): "
            << exp::fmt(model::expected_unconstrained_window(params.p, 2), 2)
            << "   Markov E[start window]: " << exp::fmt(markov.expected_start_window, 2)
            << "\n\n";

  // The chain's states are TDP *starting* windows, while the simulated
  // histogram is packet-weighted over the *operating* window. Convert the
  // chain's stationary distribution: within a TDP starting at w0 the
  // window sweeps linearly w0 -> ~2*w0 and each round of window w carries
  // w packets, so state w0 contributes mass pi(w0) * w at every w in
  // [w0, 2*w0] (slow-start states sweep 1 -> 2*threshold).
  const auto n_states = static_cast<std::size_t>(
      markov.stationary.size() >= 48 ? 24 : markov.stationary.size());
  std::vector<double> markov_packets(25, 0.0);
  for (std::size_t s = 0; s < markov.stationary.size(); ++s) {
    const bool is_ss = s >= n_states;
    const int w_param = static_cast<int>(s % n_states) + 1;
    const int sweep_lo = is_ss ? 1 : w_param;
    const int sweep_hi = std::min(24, 2 * w_param);
    for (int w = sweep_lo; w <= sweep_hi; ++w) {
      markov_packets[static_cast<std::size_t>(w)] +=
          markov.stationary[s] * static_cast<double>(w);
    }
  }
  double total = 0.0;
  for (const double m : markov_packets) {
    total += m;
  }

  exp::TextTable t({"window bucket", "sim (share of packets)", "Markov (share of packets)"});
  for (int lo = 1; lo <= 22; lo += 3) {
    double sim_share = 0.0;
    double markov_share = 0.0;
    for (int w = lo; w < lo + 3 && w <= 24; ++w) {
      sim_share += sim_bins[static_cast<std::size_t>(w - 1)] / sends;
      markov_share += markov_packets[static_cast<std::size_t>(w)] / total;
    }
    t.add_row({std::to_string(lo) + "-" + std::to_string(lo + 2), exp::fmt(sim_share, 3),
               exp::fmt(markov_share, 3)});
  }
  t.print(std::cout);
  std::cout << "\n(both packet-weighted distributions should concentrate in the same\n"
               "mid-window buckets and thin toward the receiver cap)\n";
  return 0;
}
