// Canonical state digests for visited-state pruning.
//
// A digest is a 128-bit hash of the *behavioral* state of a simulated
// connection: every field that can influence a future decision — window
// and sequence state, RTO estimator internals (Jacobson srtt/rttvar,
// Karn timing and per-segment retransmission flags), receiver reassembly
// and delayed-ACK state, link FIFO frontiers, and the pending timer
// wheel (the sorted multiset of event timestamps).
//
// Cumulative counters (stats structs) are deliberately EXCLUDED: nothing
// in the protocol branches on them, so two states differing only in how
// they were reached behave identically forever — hashing histories out
// is what lets the explorer prune commuting interleavings (a sleep-set
// style reduction realized through state equality).
//
// Soundness contract: pruning on digest equality can only *suppress*
// exploration, never fabricate a violation — every counterexample the
// explorer reports is independently re-validated by deterministic
// replay. A hash collision or a state component outside the digest's
// view can at worst hide an interleaving; it cannot produce a false
// alarm.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/sim_time.hpp"

namespace pftk::sim {
class Connection;
}

namespace pftk::mc {

/// 128-bit digest (two mixed 64-bit lanes). Nonzero init so the empty
/// digest is distinguishable from digesting zeros.
struct McDigest {
  std::uint64_t hi = 0x243f6a8885a308d3ULL;
  std::uint64_t lo = 0x13198a2e03707344ULL;

  friend bool operator==(const McDigest& a, const McDigest& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const McDigest& a, const McDigest& b) noexcept {
    return !(a == b);
  }

  /// 32 lowercase hex digits, "hhhhhhhhhhhhhhhhllllllllllllllll".
  [[nodiscard]] std::string hex() const;

  /// Inverse of hex(). @throws std::invalid_argument on malformed input.
  [[nodiscard]] static McDigest from_hex(const std::string& text);
};

/// Hasher for unordered containers keyed on McDigest.
struct McDigestHash {
  std::size_t operator()(const McDigest& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Order-sensitive accumulator: feed words, take the digest. Inline, as
/// a digest feeds it about 120 words.
class DigestBuilder {
 public:
  void add_u64(std::uint64_t value) noexcept {
    // Position-dependent mixing (splitmix64 per lane): permuting the
    // input sequence changes the digest, and both lanes diverge
    // independently.
    ++count_;
    digest_.hi = sim::splitmix64(digest_.hi ^ sim::splitmix64(value + count_));
    digest_.lo = sim::splitmix64(digest_.lo + digest_.hi + value);
  }
  void add_i64(std::int64_t value) noexcept {
    add_u64(static_cast<std::uint64_t>(value));
  }
  void add_double(double value) noexcept { add_u64(std::bit_cast<std::uint64_t>(value)); }
  void add_bool(bool value) noexcept { add_u64(value ? 1 : 0); }

  [[nodiscard]] McDigest finish() const noexcept { return digest_; }

 private:
  McDigest digest_;
  std::uint64_t count_ = 0;
};

/// Digests the behavioral state of a connection (see file comment for
/// exactly what is covered and why counters are excluded). `scratch`
/// holds the pending event times; a caller that digests often passes the
/// same buffer each time, and the digest allocates nothing.
[[nodiscard]] McDigest digest_connection(const sim::Connection& conn,
                                         std::vector<sim::Time>& scratch);

/// digest_connection with a buffer of its own.
[[nodiscard]] McDigest digest_connection(const sim::Connection& conn);

}  // namespace pftk::mc
