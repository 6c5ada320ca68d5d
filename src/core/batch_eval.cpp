#include "core/batch_eval.hpp"

#include <cfloat>
#include <stdexcept>

namespace pftk::model {

namespace {

ModelParams validated(const ModelParams& base) {
  ModelParams probe = base;
  probe.p = 0.0;  // p is supplied per evaluation; validate the rest
  probe.validate();
  return probe;
}

}  // namespace

PreparedModel::PreparedModel(ModelKind kind, const ModelParams& base)
    : kind_(kind), constants_(validated(base)) {}

double PreparedModel::operator()(double p) const {
  // ModelParams' domain, 0 or [DBL_MIN, 1). A normal p costs the two
  // compares; NaN fails every comparison, so it needs no isfinite branch.
  if (!(p >= DBL_MIN && p < 1.0) && p != 0.0) {
    throw std::invalid_argument("PreparedModel: p must be 0 or in [DBL_MIN, 1)");
  }
  switch (kind_) {
    case ModelKind::kFull:
      return kernel::full(constants_, p).send_rate;
    case ModelKind::kApproximate:
      return kernel::approx(constants_, p);
    case ModelKind::kTdOnly:
      return kernel::td_only(constants_, p);
  }
  throw std::invalid_argument("PreparedModel: unknown ModelKind");
}

void PreparedModel::evaluate(std::span<const double> p, std::span<double> out) const {
  if (p.size() != out.size()) {
    throw std::invalid_argument("PreparedModel::evaluate: p/out size mismatch");
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    out[i] = (*this)(p[i]);
  }
}

void evaluate_batch_p(ModelKind kind, const ModelParams& base,
                      std::span<const double> p, std::span<double> out) {
  PreparedModel(kind, base).evaluate(p, out);
}

}  // namespace pftk::model
