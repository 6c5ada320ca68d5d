#include "core/tcp_model_params.hpp"

#include <cfloat>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pftk::model {

bool ModelParams::valid() const noexcept {
  return (p == 0.0 || (p >= DBL_MIN && p < 1.0)) && std::isfinite(rtt) && rtt > 0.0 &&
         std::isfinite(t0) && t0 > 0.0 && b >= 1 && std::isfinite(wm) && wm >= 1.0;
}

void ModelParams::validate() const {
  // Non-finite values get their own diagnostics: a NaN silently fails
  // every range comparison, so without these checks a corrupted trace
  // summary would be reported as a range error (or, worse, p = NaN would
  // sail through a `!(p < 0)`-style check into the formulas).
  if (std::isnan(p) || std::isinf(p)) {
    throw ParamError("ModelParams: p must be finite (got NaN/Inf)");
  }
  if (std::isnan(rtt) || std::isinf(rtt)) {
    throw ParamError("ModelParams: rtt must be finite (got NaN/Inf)");
  }
  if (std::isnan(t0) || std::isinf(t0)) {
    throw ParamError("ModelParams: t0 must be finite (got NaN/Inf)");
  }
  if (std::isnan(wm) || std::isinf(wm)) {
    throw ParamError("ModelParams: wm must be finite (got NaN/Inf)");
  }
  if (!(p >= 0.0 && p < 1.0)) {
    throw ParamError("ModelParams: p must be in [0, 1)");
  }
  // Eq (32) has terms of size 1/p, which overflow for a subnormal p and
  // turn the answer into inf or NaN.
  if (p != 0.0 && p < DBL_MIN) {
    std::ostringstream os;
    os << "ModelParams: p must be 0 or at least DBL_MIN = " << DBL_MIN
       << ", got subnormal " << p;
    throw ParamError(os.str());
  }
  if (!(rtt > 0.0)) {
    throw ParamError("ModelParams: rtt must be positive");
  }
  if (!(t0 > 0.0)) {
    throw ParamError("ModelParams: t0 must be positive");
  }
  if (b < 1) {
    throw ParamError("ModelParams: b must be >= 1");
  }
  if (!(wm >= 1.0)) {
    throw ParamError("ModelParams: wm must be >= 1");
  }
}

std::string ModelParams::describe() const {
  std::ostringstream os;
  os << "p=" << p << " RTT=" << rtt << "s T0=" << t0 << "s b=" << b;
  if (wm >= unlimited_window) {
    os << " Wm=unlimited";
  } else {
    os << " Wm=" << wm;
  }
  return os.str();
}

}  // namespace pftk::model
