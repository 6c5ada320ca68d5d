#include "core/approx_model.hpp"

#include "core/model_kernels.hpp"

namespace pftk::model {

double approx_model_send_rate(const ModelParams& params) {
  params.validate();
  return kernel::approx(kernel::Constants(params), params.p);
}

}  // namespace pftk::model
