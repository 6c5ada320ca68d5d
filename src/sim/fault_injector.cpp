#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pftk::sim {

namespace {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBlackout:
      return "blackout";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kDuplicate:
      return "dup";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kDelaySpike:
      return "delay";
  }
  return "?";
}

FaultKind kind_from_name(const std::string& name, const std::string& clause) {
  if (name == "blackout") {
    return FaultKind::kBlackout;
  }
  if (name == "loss") {
    return FaultKind::kLoss;
  }
  if (name == "dup") {
    return FaultKind::kDuplicate;
  }
  if (name == "reorder") {
    return FaultKind::kReorder;
  }
  if (name == "delay") {
    return FaultKind::kDelaySpike;
  }
  throw std::invalid_argument("FaultSchedule::parse: unknown fault kind '" + name +
                              "' in '" + clause + "'");
}

double parse_number(const std::string& text, const std::string& clause) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultSchedule::parse: bad number '" + text + "' in '" +
                                clause + "'");
  }
  if (used != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument("FaultSchedule::parse: bad number '" + text + "' in '" +
                                clause + "'");
  }
  return value;
}

}  // namespace

void FaultSpec::validate() const {
  if (!(std::isfinite(start) && start >= 0.0)) {
    throw std::invalid_argument("FaultSpec: start must be finite and >= 0");
  }
  if (!(std::isfinite(duration) && duration >= 0.0)) {
    throw std::invalid_argument("FaultSpec: duration must be finite and >= 0");
  }
  if (duration == 0.0 && count == 0) {
    throw std::invalid_argument("FaultSpec: needs a duration or a packet count");
  }
  if (count > 0 && kind != FaultKind::kBlackout) {
    throw std::invalid_argument("FaultSpec: packet counts apply to blackouts only");
  }
  if (!(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("FaultSpec: rate must be in [0, 1]");
  }
  if (!(std::isfinite(magnitude) && magnitude >= 0.0)) {
    throw std::invalid_argument("FaultSpec: magnitude must be finite and >= 0");
  }
  if (kind == FaultKind::kDelaySpike && magnitude == 0.0) {
    throw std::invalid_argument("FaultSpec: a delay spike needs a magnitude");
  }
  if (kind == FaultKind::kReorder && magnitude == 0.0) {
    throw std::invalid_argument("FaultSpec: reordering needs a hold-back magnitude");
  }
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << kind_name(kind) << '@' << start;
  if (duration > 0.0) {
    os << '+' << duration;
  }
  if (count > 0) {
    os << '#' << count;
  }
  const bool has_rate = kind == FaultKind::kLoss || kind == FaultKind::kDuplicate ||
                        kind == FaultKind::kReorder;
  if (has_rate || magnitude > 0.0) {
    os << ':' << (has_rate ? rate : magnitude);
    if (has_rate && magnitude > 0.0) {
      os << ':' << magnitude;
    }
  }
  return os.str();
}

void FaultSchedule::validate() const {
  for (const FaultSpec& spec : faults) {
    spec.validate();
  }
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule schedule;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    const std::string clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) {
      if (pos > text.size()) {
        break;
      }
      continue;
    }

    const std::size_t at = clause.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("FaultSchedule::parse: missing '@' in '" + clause + "'");
    }
    FaultSpec spec;
    spec.kind = kind_from_name(clause.substr(0, at), clause);

    // Split the remainder into the time part and the optional :rate[:mag].
    std::string time_part = clause.substr(at + 1);
    std::string rate_part;
    if (const std::size_t colon = time_part.find(':'); colon != std::string::npos) {
      rate_part = time_part.substr(colon + 1);
      time_part = time_part.substr(0, colon);
    }
    if (const std::size_t hash = time_part.find('#'); hash != std::string::npos) {
      const double count = parse_number(time_part.substr(hash + 1), clause);
      if (count < 1.0 || count != std::floor(count)) {
        throw std::invalid_argument("FaultSchedule::parse: bad packet count in '" +
                                    clause + "'");
      }
      spec.count = static_cast<std::uint64_t>(count);
      time_part = time_part.substr(0, hash);
    }
    if (const std::size_t plus = time_part.find('+'); plus != std::string::npos) {
      spec.duration = parse_number(time_part.substr(plus + 1), clause);
      time_part = time_part.substr(0, plus);
    }
    spec.start = parse_number(time_part, clause);

    if (!rate_part.empty()) {
      std::string magnitude_part;
      if (const std::size_t colon = rate_part.find(':'); colon != std::string::npos) {
        magnitude_part = rate_part.substr(colon + 1);
        rate_part = rate_part.substr(0, colon);
      }
      // A delay spike's single parameter is its magnitude, not a rate.
      if (spec.kind == FaultKind::kDelaySpike && magnitude_part.empty()) {
        spec.magnitude = parse_number(rate_part, clause);
      } else {
        spec.rate = parse_number(rate_part, clause);
        if (!magnitude_part.empty()) {
          spec.magnitude = parse_number(magnitude_part, clause);
        }
      }
    }
    if (spec.kind == FaultKind::kReorder && spec.magnitude == 0.0) {
      spec.magnitude = 0.1;  // default hold-back: enough to pass a few packets
    }
    try {
      spec.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) + " (in '" + clause + "')");
    }
    schedule.faults.push_back(spec);
  }
  return schedule;
}

std::string FaultSchedule::describe() const {
  std::string out;
  for (const FaultSpec& spec : faults) {
    if (!out.empty()) {
      out += ';';
    }
    out += spec.describe();
  }
  return out;
}

FaultStats& FaultStats::operator+=(const FaultStats& other) noexcept {
  offered += other.offered;
  dropped_blackout += other.dropped_blackout;
  dropped_loss += other.dropped_loss;
  duplicated += other.duplicated;
  reordered += other.reordered;
  delayed += other.delayed;
  return *this;
}

FaultInjector::FaultInjector(FaultSchedule schedule, Rng rng)
    : schedule_(std::move(schedule)) {
  rng_ = std::move(rng);
  schedule_.validate();
  remaining_.reserve(schedule_.faults.size());
  for (const FaultSpec& spec : schedule_.faults) {
    remaining_.push_back(spec.count);
  }
}

bool FaultInjector::active(const FaultSpec& spec, std::size_t index, Time at) const {
  if (at < spec.start) {
    return false;
  }
  if (spec.duration > 0.0) {
    return at < spec.start + spec.duration;
  }
  return remaining_[index] > 0;  // packet-scoped blackout
}

bool FaultInjector::apply(std::size_t i, Time at, FaultVerdict& verdict) {
  const FaultSpec& spec = schedule_.faults[i];
  switch (spec.kind) {
    case FaultKind::kBlackout:
      if (remaining_[i] > 0) {
        --remaining_[i];
      }
      ++stats_.dropped_blackout;
      verdict.drop = true;
      emit(at, obs::ConnEventKind::kFaultDrop, 0.0);
      return true;  // dropped: later faults are moot
    case FaultKind::kLoss:
      if (rng_.bernoulli(spec.rate)) {
        ++stats_.dropped_loss;
        verdict.drop = true;
        emit(at, obs::ConnEventKind::kFaultDrop, 1.0);
        return true;
      }
      break;
    case FaultKind::kDuplicate:
      if (rng_.bernoulli(spec.rate)) {
        ++stats_.duplicated;
        ++verdict.extra_copies;
        verdict.duplicate_lag = std::max(verdict.duplicate_lag, spec.magnitude);
        emit(at, obs::ConnEventKind::kFaultDuplicate, spec.magnitude);
      }
      break;
    case FaultKind::kReorder:
      if (rng_.bernoulli(spec.rate)) {
        ++stats_.reordered;
        verdict.extra_delay += spec.magnitude;
        verdict.exempt_fifo = true;
        emit(at, obs::ConnEventKind::kFaultReorder, spec.magnitude);
      }
      break;
    case FaultKind::kDelaySpike:
      ++stats_.delayed;
      verdict.extra_delay += spec.magnitude;
      emit(at, obs::ConnEventKind::kFaultDelay, spec.magnitude);
      break;
  }
  return false;
}

FaultVerdict FaultInjector::on_packet(Time at) {
  FaultVerdict verdict;
  ++stats_.offered;
  if (order_oracle_) {
    // Choice-point path: collect the active specs, let the oracle pick a
    // rotation, apply in rotated order. A rotation (rather than a full
    // permutation) keeps the decision arity linear in the active count
    // while still exposing every "who fires first" outcome that can
    // change the verdict.
    active_scratch_.clear();
    for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
      if (active(schedule_.faults[i], i, at)) {
        active_scratch_.push_back(i);
      }
    }
    const std::size_t n = active_scratch_.size();
    std::size_t offset = n > 1 ? order_oracle_(n) : 0;
    if (n > 0 && offset >= n) {
      offset = n - 1;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (apply(active_scratch_[(offset + k) % n], at, verdict)) {
        return verdict;
      }
    }
    return verdict;
  }
  for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
    if (!active(schedule_.faults[i], i, at)) {
      continue;
    }
    if (apply(i, at, verdict)) {
      return verdict;
    }
  }
  return verdict;
}

void FaultInjector::reset() {
  for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
    remaining_[i] = schedule_.faults[i].count;
  }
  stats_ = FaultStats{};
}

}  // namespace pftk::sim
