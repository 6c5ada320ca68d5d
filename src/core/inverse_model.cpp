#include "core/inverse_model.hpp"

#include <limits>
#include <stdexcept>

#include "core/batch_eval.hpp"
#include "core/full_model.hpp"
#include "core/model_kernels.hpp"

namespace pftk::model {

namespace {

void require_target(double target_rate) {
  if (!(target_rate > 0.0)) {
    throw std::invalid_argument("inverse model: target_rate must be positive");
  }
}

}  // namespace

double max_loss_for_rate(const ModelParams& params, double target_rate) {
  // The bisection evaluates B(p) at a fixed (RTT, T0, b, Wm) ~200 times;
  // the prepared evaluator hoists those terms once up front (and
  // validates them — this keeps the original error behaviour).
  const PreparedModel rate_at(ModelKind::kFull, params);
  require_target(target_rate);

  // B(p) is monotone non-increasing in p; the ceiling is B(0) = Wm/RTT.
  if (rate_at(0.0) < target_rate) {
    return 0.0;
  }
  double lo = 1e-12;  // rate >= target here, checked below
  double hi = 0.999;  // rate < target here for any sane target
  if (rate_at(hi) >= target_rate) {
    return hi;  // even near-certain loss sustains the target
  }
  if (rate_at(lo) < target_rate) {
    // The target lies between B(1e-12) and the ceiling B(0).
    hi = lo;
    lo = 0.0;
  }
  // Each end has been evaluated on its own side of the target, so once
  // the midpoint rounds onto an end every later step is a no-op.
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;
    }
    (rate_at(mid) >= target_rate ? lo : hi) = mid;
  }
  return lo;
}

double required_window_for_rate(const ModelParams& params, double target_rate) {
  ModelParams probe = params;
  probe.wm = 1.0;
  probe.validate();
  require_target(target_rate);

  // B is monotone non-decreasing in Wm and saturates at the unconstrained
  // (loss-limited) rate.
  probe.wm = ModelParams::unlimited_window;
  const FullModelBreakdown unlimited = full_model_breakdown(probe);
  if (unlimited.send_rate < target_rate) {
    return std::numeric_limits<double>::infinity();
  }
  probe.wm = 1.0;
  if (full_model_send_rate(probe) >= target_rate) {
    return 1.0;
  }
  double lo = 1.0;                              // rate < target
  double hi = ModelParams::unlimited_window;    // rate >= target
  // Above E[Wu] (eq 13) the window does not bind and eq (32) reads no
  // term of Wm, so the rate there is the unlimited one, >= target. At
  // p = 0 E[Wu] reads as unlimited_window and nothing is skipped.
  const double ewu = unlimited.expected_window_unconstrained;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;
    }
    probe.wm = mid;  // inside (1, 1e9): validate() has nothing to add
    const bool reaches =
        mid > ewu || kernel::full(kernel::Constants(probe), probe.p).send_rate >= target_rate;
    (reaches ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace pftk::model
