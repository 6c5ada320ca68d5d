#include "obs/conn_event_trace.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace pftk::obs {

namespace {

struct KindName {
  ConnEventKind kind;
  std::string_view name;
};

constexpr std::array<KindName, 19> kKindNames{{
    {ConnEventKind::kSlowStartEnter, "slow_start_enter"},
    {ConnEventKind::kCongAvoidEnter, "cong_avoid_enter"},
    {ConnEventKind::kFastRetransmit, "fast_retransmit"},
    {ConnEventKind::kFastRecoveryEnter, "fast_recovery_enter"},
    {ConnEventKind::kFastRecoveryExit, "fast_recovery_exit"},
    {ConnEventKind::kRtoFire, "rto_fire"},
    {ConnEventKind::kSsthreshUpdate, "ssthresh_update"},
    {ConnEventKind::kRwndClamp, "rwnd_clamp"},
    {ConnEventKind::kRwndRelease, "rwnd_release"},
    {ConnEventKind::kDelayedAckFire, "delayed_ack_fire"},
    {ConnEventKind::kOutOfOrderBuffered, "out_of_order_buffered"},
    {ConnEventKind::kHoleFilled, "hole_filled"},
    {ConnEventKind::kFaultDrop, "fault_drop"},
    {ConnEventKind::kFaultDuplicate, "fault_duplicate"},
    {ConnEventKind::kFaultReorder, "fault_reorder"},
    {ConnEventKind::kFaultDelay, "fault_delay"},
    {ConnEventKind::kWatchdogTrip, "watchdog_trip"},
    {ConnEventKind::kTfrcRateUpdate, "tfrc_rate_update"},
    {ConnEventKind::kTfrcNoFeedback, "tfrc_no_feedback"},
}};

}  // namespace

std::string_view conn_event_name(ConnEventKind kind) noexcept {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

ConnEventKind conn_event_from_name(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == name) {
      return entry.kind;
    }
  }
  throw std::invalid_argument("conn_event_from_name: unknown event '" +
                              std::string(name) + "'");
}

ConnEventTrace::ConnEventTrace(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ConnEventTrace: capacity must be >= 1");
  }
  ring_.resize(capacity);
}

std::vector<ConnEvent> ConnEventTrace::events() const {
  std::vector<ConnEvent> out;
  out.reserve(size_);
  const std::size_t start = size_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t ConnEventTrace::count(ConnEventKind kind) const noexcept {
  std::uint64_t n = 0;
  const std::size_t start = size_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[(start + i) % ring_.size()].kind == kind) {
      ++n;
    }
  }
  return n;
}

void ConnEventTrace::clear() noexcept {
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

}  // namespace pftk::obs
