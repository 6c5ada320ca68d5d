// The paper's full model, eq (32): TCP Reno steady-state send rate with
// triple-duplicate and timeout loss indications, exponential backoff
// (64*T0 cap), and the receiver-window limitation.
//
//               (1-p)/p + E[W] + Qhat(E[W]) / (1-p)
//   B(p) = ---------------------------------------------------     E[Wu] < Wm
//           RTT*(b/2*E[Wu] + 1) + Qhat(E[W])*T0*f(p)/(1-p)
//
//               (1-p)/p + Wm + Qhat(Wm) / (1-p)
//   B(p) = ---------------------------------------------------     otherwise
//           RTT*(b/8*Wm + (1-p)/(p*Wm) + 2) + Qhat(Wm)*T0*f(p)/(1-p)
#pragma once

#include "core/tcp_model_params.hpp"

namespace pftk::model {

/// Intermediate quantities of the full model, exposed for diagnostics,
/// tests and the benches that print per-regime behaviour.
struct FullModelBreakdown {
  double expected_window_unconstrained = 0.0;  ///< E[Wu], eq (13)
  double expected_window = 0.0;                ///< min(E[Wu], Wm)
  double q_hat = 0.0;                          ///< Qhat(E[W])
  double expected_rounds = 0.0;                ///< E[X] of the active regime
  double numerator_packets = 0.0;              ///< E[packets per S-cycle]
  double denominator_seconds = 0.0;            ///< E[duration per S-cycle]
  bool window_limited = false;                 ///< true when E[Wu] >= Wm
  double send_rate = 0.0;                      ///< packets per second
};

/// Send rate (packets/s) from the full model (eq 32).
/// For p == 0 returns the window-limited ceiling Wm / RTT (the analytic
/// p -> 0 limit of the window-limited branch).
/// @throws std::invalid_argument if params are invalid.
[[nodiscard]] double full_model_send_rate(const ModelParams& params);

/// As full_model_send_rate, but returns every intermediate term.
/// @throws std::invalid_argument if params are invalid.
[[nodiscard]] FullModelBreakdown full_model_breakdown(const ModelParams& params);

}  // namespace pftk::model
