#include "core/throughput_model.hpp"

#include <algorithm>

#include "core/full_model.hpp"
#include "core/model_kernels.hpp"

namespace pftk::model {

double throughput_model_rate(const ModelParams& params) {
  // E[W], E[X] and Qhat(E[W]) are the eq-(32) terms, regime switch and
  // E[W] >= 1 floor included.
  const FullModelBreakdown full = full_model_breakdown(params);
  const double p = params.p;
  if (p == 0.0) {
    return full.send_rate;  // Wm/RTT
  }
  const double qh = full.q_hat;
  // E[Y'] + Q*E[R'] with E[Y'] = 1/p + E[W]/2 - 1 and E[R'] = 1 (eq 35/36).
  const double numerator = (1.0 - p) / p + full.expected_window / 2.0 + qh;
  const double denominator = params.rtt * (full.expected_rounds + 1.0) +
                             qh * kernel::backoff(p) * params.t0 / (1.0 - p);
  return numerator / denominator;
}

double delivered_fraction(const ModelParams& params) {
  params.validate();
  const double b_rate = full_model_send_rate(params);
  if (b_rate <= 0.0) {
    return 1.0;
  }
  return std::min(1.0, throughput_model_rate(params) / b_rate);
}

}  // namespace pftk::model
