#include "mc/choice.hpp"

#include <optional>
#include <sstream>
#include <string_view>

#include "robust/decimal.hpp"
#include "sim/event_queue.hpp"

namespace pftk::mc {

namespace {

std::string mismatch_message(const char* what, std::size_t position, const Choice& recorded,
                             ChoiceKind kind, std::size_t arity) {
  std::ostringstream os;
  os << "choice divergence at index " << position << ": " << what << " (recorded "
     << choice_kind_token(recorded.kind) << recorded.chosen << "/" << recorded.arity
     << ", live " << choice_kind_token(kind) << "?/" << arity << ")";
  return os.str();
}

}  // namespace

char choice_kind_token(ChoiceKind kind) noexcept {
  switch (kind) {
    case ChoiceKind::kForwardLoss:
      return 'F';
    case ChoiceKind::kAckLoss:
      return 'A';
    case ChoiceKind::kTieBreak:
      return 'T';
    case ChoiceKind::kFaultOrder:
      return 'O';
  }
  return '?';
}

ChoiceKind choice_kind_from_token(char token) {
  switch (token) {
    case 'F':
      return ChoiceKind::kForwardLoss;
    case 'A':
      return ChoiceKind::kAckLoss;
    case 'T':
      return ChoiceKind::kTieBreak;
    case 'O':
      return ChoiceKind::kFaultOrder;
    default:
      throw std::invalid_argument(std::string("unknown choice token '") + token + "'");
  }
}

std::string encode_choices(const std::vector<Choice>& path) {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      os << ' ';
    }
    const Choice& c = path[i];
    os << choice_kind_token(c.kind) << c.chosen;
    if (c.kind == ChoiceKind::kTieBreak || c.kind == ChoiceKind::kFaultOrder) {
      os << '/' << c.arity;
    }
  }
  return os.str();
}

std::vector<Choice> decode_choices(const std::string& text) {
  std::vector<Choice> path;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    Choice c;
    c.kind = choice_kind_from_token(token[0]);
    const bool fixed_arity = c.kind == ChoiceKind::kForwardLoss ||
                             c.kind == ChoiceKind::kAckLoss;
    const std::string rest = token.substr(1);
    const std::size_t slash = rest.find('/');
    if (fixed_arity != (slash == std::string::npos)) {
      // Loss kinds never carry "/arity" (it is fixed at 2); the ordered
      // kinds always do. Anything else cannot have come from encode.
      throw std::invalid_argument("malformed choice token '" + token + "'");
    }
    // Both numbers are plain decimals (no sign or suffix) that fit u16.
    const auto chosen = robust::parse_decimal(std::string_view(rest).substr(0, slash),
                                              UINT16_MAX);
    const auto arity = slash == std::string::npos
                           ? std::optional<std::uint64_t>(2)
                           : robust::parse_decimal(std::string_view(rest).substr(slash + 1),
                                                   UINT16_MAX);
    if (!chosen || !arity || *arity < 2 || *chosen >= *arity) {
      throw std::invalid_argument("malformed choice token '" + token + "'");
    }
    c.chosen = static_cast<std::uint16_t>(*chosen);
    c.arity = static_cast<std::uint16_t>(*arity);
    path.push_back(c);
  }
  return path;
}

ScriptedChoices::ScriptedChoices(std::vector<Choice> prefix)
    : path_(std::move(prefix)), prefix_(path_.size()) {}

void ScriptedChoices::restart(const std::vector<Choice>& prefix, std::size_t cursor) {
  if (cursor > prefix.size()) {
    throw std::logic_error("ScriptedChoices::restart: cursor past the prefix");
  }
  path_ = prefix;
  prefix_ = path_.size();
  cursor_ = cursor;
  stopped_ = false;
  truncated_ = false;
}

std::size_t ScriptedChoices::choose(ChoiceKind kind, std::size_t arity) {
  if (arity < 2) {
    throw std::logic_error("ScriptedChoices: arity must be >= 2");
  }
  if (cursor_ < path_.size()) {
    const Choice& recorded = path_[cursor_];
    if (recorded.kind != kind || recorded.arity != arity) {
      // The same prefix must always reproduce the same run; a mismatch
      // means the harness leaks nondeterminism the checker cannot see.
      throw ChoiceDivergence(
          mismatch_message("prefix does not reproduce", cursor_, recorded, kind, arity));
    }
    ++cursor_;
    return recorded.chosen;
  }
  if (stopped_ || truncated_) {
    // Abandoned, or past the depth budget: stay on the default branch,
    // record nothing.
    return 0;
  }
  const NodeVerdict verdict =
      hook_ ? hook_(kind, arity, path_.size()) : NodeVerdict::kExplore;
  if (verdict == NodeVerdict::kPrune) {
    stopped_ = true;
    if (queue_ != nullptr) {
      queue_->request_stop();  // the branch ends with the current event
    }
    return 0;
  }
  if (verdict == NodeVerdict::kTruncate) {
    truncated_ = true;
    return 0;
  }
  path_.push_back(Choice{kind, 0, static_cast<std::uint16_t>(arity)});
  cursor_ = path_.size();
  return 0;
}

ReplayChoices::ReplayChoices(std::vector<Choice> trace) : trace_(std::move(trace)) {}

std::size_t ReplayChoices::choose(ChoiceKind kind, std::size_t arity) {
  if (cursor_ >= trace_.size()) {
    std::ostringstream os;
    os << "choice divergence: live run hit choice point " << cursor_ + 1
       << " but the trace records only " << trace_.size();
    throw ChoiceDivergence(os.str());
  }
  const Choice& recorded = trace_[cursor_];
  if (recorded.kind != kind || recorded.arity != arity) {
    throw ChoiceDivergence(
        mismatch_message("trace does not reproduce", cursor_, recorded, kind, arity));
  }
  if (recorded.chosen >= recorded.arity) {
    throw ChoiceDivergence(
        mismatch_message("chosen index out of range", cursor_, recorded, kind, arity));
  }
  ++cursor_;
  return recorded.chosen;
}

}  // namespace pftk::mc
