#include "core/td_only_model.hpp"

#include <limits>

#include "core/model_kernels.hpp"
#include "core/model_terms.hpp"

namespace pftk::model {

double td_only_send_rate(const ModelParams& params) {
  params.validate();
  if (params.p == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double ew = expected_unconstrained_window(params.p, params.b);
  const double ex = expected_rounds_unconstrained(params.p, params.b);
  const double packets_per_tdp = (1.0 - params.p) / params.p + ew;
  const double tdp_duration = params.rtt * (ex + 1.0);
  return packets_per_tdp / tdp_duration;
}

double td_only_asymptotic_send_rate(const ModelParams& params) {
  params.validate();
  return kernel::td_only(kernel::Constants(params), params.p);
}

}  // namespace pftk::model
