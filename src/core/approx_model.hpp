// The approximate model, eq (33) — the widely used "PFTK formula":
//
//   B(p) ~= min( Wm/RTT,
//                1 / ( RTT*sqrt(2bp/3) +
//                      T0 * min(1, 3*sqrt(3bp/8)) * p * (1 + 32 p^2) ) )
//
// This is the closed form adopted by TFRC (RFC 5348) and countless
// TCP-friendliness tools.
#pragma once

#include "core/tcp_model_params.hpp"

namespace pftk::model {

/// Send rate (packets/s) from the approximate model (eq 33).
/// For p == 0 returns the window-limited ceiling Wm / RTT.
/// @throws std::invalid_argument if params are invalid.
[[nodiscard]] double approx_model_send_rate(const ModelParams& params);

}  // namespace pftk::model
