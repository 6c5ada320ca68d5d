// Plain-counter sink the EventQueue increments when observability is
// attached.
//
// The event loop is the hottest path in the repository (PR 3 got
// dispatch to ~54 ns/event), so its instrumentation is the cheapest
// thing that still answers the ops questions: how many events ran, how
// much schedule/cancel churn the run generated, and how often the heap
// had to compact. The queue holds a nullable pointer to this struct and
// does `if (sink) ++sink->field` — one predictable branch, no atomics,
// no function calls. The 10% dispatch-overhead gate of `pftk bench`
// (the obs gate) holds the line on exactly this code.
#pragma once

#include <cstdint>

namespace pftk::obs {

struct EventLoopStats {
  std::uint64_t scheduled = 0;    ///< schedule_at/schedule_in calls
  std::uint64_t executed = 0;     ///< callbacks actually run
  std::uint64_t cancelled = 0;    ///< cancel() calls that hit a live event
  std::uint64_t compactions = 0;  ///< lazy-cancel heap compaction passes
  std::uint64_t heap_peak = 0;    ///< high-water heap entries (incl. cancelled)
  std::uint64_t slab_peak = 0;    ///< high-water callback slots allocated
};

}  // namespace pftk::obs
