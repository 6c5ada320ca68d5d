// Inversions of the full model — the questions operators actually ask:
//
//  * admission / provisioning: "what loss rate can a path carry and still
//    give this flow X packets per second?" -> max_loss_for_rate
//  * buffer sizing: "how big must the receiver window be so the window
//    cap doesn't throttle the flow below its loss-limited rate?"
//    -> required_window_for_rate
//
// Both invert monotone sections of eq (32) by bisection; tolerances are
// relative and the functions document their domains precisely.
#pragma once

#include "core/tcp_model_params.hpp"

namespace pftk::model {

/// Largest loss-indication rate p such that the full model still predicts
/// at least `target_rate` packets/second with the given RTT, T0, b, Wm
/// (the `p` field of `params` is ignored).
///
/// @returns p in (0, 1), at which eq (32) reaches the target; 0.0 if even
///          a vanishing loss rate cannot reach it (the window/RTT ceiling
///          is below it).
/// @throws std::invalid_argument on invalid params or target_rate <= 0.
[[nodiscard]] double max_loss_for_rate(const ModelParams& params, double target_rate);

/// Smallest receiver window Wm such that the full model at the given
/// (p, RTT, T0, b) predicts at least `target_rate` packets/second (the
/// `wm` field of `params` is ignored).
///
/// @returns Wm >= 1; +infinity if no window reaches the target (the flow
///          is loss-limited below it).
/// @throws std::invalid_argument on invalid params or target_rate <= 0.
[[nodiscard]] double required_window_for_rate(const ModelParams& params,
                                              double target_rate);

}  // namespace pftk::model
