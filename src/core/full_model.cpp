#include "core/full_model.hpp"

#include "core/model_kernels.hpp"

namespace pftk::model {

FullModelBreakdown full_model_breakdown(const ModelParams& params) {
  params.validate();
  return kernel::full(kernel::Constants(params), params.p);
}

double full_model_send_rate(const ModelParams& params) {
  return full_model_breakdown(params).send_rate;
}

}  // namespace pftk::model
