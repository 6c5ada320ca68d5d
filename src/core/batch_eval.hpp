// Evaluation of the Section-III model family at a fixed (RTT, T0, b, Wm)
// for many p in a row — the shape of the inverse model's root finder,
// Fig. 9 scoring over an hour trace's intervals and the serve cache.
//
// PreparedModel validates the non-p fields once and keeps the exact
// hoists of kernel::Constants (see core/model_kernels.hpp and MODELS.md,
// "One kernel per equation"). It runs the same kernels as the scalar
// entry points, so PreparedModel(kind, base)(p) == evaluate_model(kind,
// base-with-p) bit for bit at every admissible p.
#pragma once

#include <span>

#include "core/model_kernels.hpp"
#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"

namespace pftk::model {

/// A send-rate model bound to a fixed (RTT, T0, b, Wm).
class PreparedModel {
 public:
  /// Prepares `kind` at `base`'s RTT/T0/b/Wm (base.p is ignored).
  /// @throws std::invalid_argument if the non-p fields are invalid.
  PreparedModel(ModelKind kind, const ModelParams& base);

  /// Evaluates the prepared model at loss probability `p`; equals
  /// evaluate_model(kind, base-with-p) exactly.
  /// @throws std::invalid_argument unless p is 0 or in [DBL_MIN, 1)
  /// (NaN and subnormals rejected).
  [[nodiscard]] double operator()(double p) const;

  /// Evaluates a whole grid: out[i] = (*this)(p[i]).
  /// @throws std::invalid_argument if the spans' sizes differ or any
  /// p[i] is neither 0 nor in [DBL_MIN, 1); out is unspecified after a
  /// throw.
  void evaluate(std::span<const double> p, std::span<double> out) const;

 private:
  ModelKind kind_;
  kernel::Constants constants_;
};

/// out[i] = evaluate_model(kind, base-with-p[i]) via a PreparedModel
/// built once from `base`.
/// @throws std::invalid_argument as PreparedModel and its evaluate().
void evaluate_batch_p(ModelKind kind, const ModelParams& base,
                      std::span<const double> p, std::span<double> out);

}  // namespace pftk::model
