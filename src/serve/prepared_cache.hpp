// Per-worker cache of PreparedModel instances.
//
// A serving shard sees long runs of MODEL requests that share
// (kind, RTT, T0, b, Wm) and differ only in p, so it validates those
// fields once per key and reuses the prepared model. A cached model
// runs the same kernels as evaluate_model, so a served rate equals the
// library's bit for bit. The cache is a move-to-front list with
// exact-double key equality: tiny, allocation-light after warmup, and
// owned by one worker thread so it needs no locking. An LRU bound keeps
// a hostile key-churning client from growing it without limit — the
// same "no unbounded buffering" stance the admission queue takes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/model_registry.hpp"
#include "core/tcp_model_params.hpp"

namespace pftk::serve {

class PreparedCache {
 public:
  explicit PreparedCache(std::size_t capacity = 32) : capacity_(capacity) {}

  struct Key {
    model::ModelKind kind = model::ModelKind::kFull;
    double rtt = 0.0;
    double t0 = 0.0;
    int b = 0;
    double wm = 0.0;

    [[nodiscard]] bool operator==(const Key& other) const noexcept {
      return kind == other.kind && rtt == other.rtt && t0 == other.t0 &&
             b == other.b && wm == other.wm;
    }
  };

  [[nodiscard]] static Key key_of(model::ModelKind kind,
                                  const model::ModelParams& params) noexcept {
    return Key{kind, params.rtt, params.t0, params.b, params.wm};
  }

  /// The prepared model for (kind, params), constructing and caching it
  /// on a miss (evicting the least-recently-used entry at capacity).
  /// The reference stays valid until the next get() call.
  /// @throws std::invalid_argument if the non-p params are invalid.
  const model::PreparedModel& get(model::ModelKind kind,
                                  const model::ModelParams& params) {
    const Key key = key_of(kind, params);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        if (i != 0) {
          std::rotate(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      entries_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        }
        ++hits_;
        return entries_.front().second;
      }
    }
    ++misses_;
    if (entries_.size() >= capacity_ && !entries_.empty()) {
      entries_.pop_back();
    }
    entries_.emplace(entries_.begin(), key,
                     model::PreparedModel(kind, params));
    return entries_.front().second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  std::size_t capacity_;
  std::vector<std::pair<Key, model::PreparedModel>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pftk::serve
