#include "exp/model_comparison.hpp"

#include <algorithm>
#include <cmath>

#include "core/batch_eval.hpp"
#include "stats/error_metrics.hpp"

namespace pftk::exp {

namespace {

/// TD-only (eq 20) diverges as p -> 0; those observations are skipped,
/// matching the paper's treatment of loss-free intervals.
bool model_defined_at(model::ModelKind kind, double p) {
  return kind != model::ModelKind::kTdOnly || p > 0.0;
}

}  // namespace

ModelErrorRow score_hour_trace(const std::string& label, const model::ModelParams& base,
                               std::span<const trace::IntervalObservation> intervals,
                               double interval_length) {
  ModelErrorRow row;
  row.label = label;
  std::array<stats::AverageErrorMetric, 3> metrics;

  // Hour traces share one (RTT, T0, b, Wm) bundle across intervals, with
  // p measured per interval — exactly the batched fast path's shape.
  std::vector<double> ps;
  std::vector<double> observed;
  ps.reserve(intervals.size());
  observed.reserve(intervals.size());
  for (const trace::IntervalObservation& obs : intervals) {
    if (obs.packets_sent == 0) {
      continue;
    }
    ps.push_back(obs.observed_p);
    observed.push_back(static_cast<double>(obs.packets_sent));
  }
  row.observations = ps.size();

  std::vector<double> rates(ps.size());
  for (std::size_t m = 0; m < model::all_model_kinds.size(); ++m) {
    const model::ModelKind kind = model::all_model_kinds[m];
    model::evaluate_batch_p(kind, base, ps, rates);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (!model_defined_at(kind, ps[i])) {
        continue;
      }
      metrics[m].add(rates[i] * interval_length, observed[i]);
    }
    row.avg_error[m] = metrics[m].value();
  }
  return row;
}

ModelErrorRow score_short_traces(const std::string& label,
                                 std::span<const ShortTraceRecord> records,
                                 double duration) {
  ModelErrorRow row;
  row.label = label;
  std::array<stats::AverageErrorMetric, 3> metrics;

  // Every short trace carries its own measured RTT/T0/p, so each record
  // is one scalar evaluation.
  for (std::size_t m = 0; m < model::all_model_kinds.size(); ++m) {
    const model::ModelKind kind = model::all_model_kinds[m];
    for (const ShortTraceRecord& rec : records) {
      if (rec.packets_sent == 0 || !model_defined_at(kind, rec.params.p)) {
        continue;
      }
      metrics[m].add(model::evaluate_model(kind, rec.params) * duration,
                     static_cast<double>(rec.packets_sent));
    }
    row.avg_error[m] = metrics[m].value();
  }
  row.observations = static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(),
      [](const ShortTraceRecord& rec) { return rec.packets_sent != 0; }));
  return row;
}

}  // namespace pftk::exp
