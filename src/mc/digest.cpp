#include "mc/digest.hpp"

#include <stdexcept>
#include <vector>

#include "sim/connection.hpp"

namespace pftk::mc {

std::string McDigest::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

McDigest McDigest::from_hex(const std::string& text) {
  if (text.size() != 32) {
    throw std::invalid_argument("McDigest::from_hex: expected 32 hex digits");
  }
  auto nibble = [](char c) -> std::uint64_t {
    if (c >= '0' && c <= '9') {
      return static_cast<std::uint64_t>(c - '0');
    }
    if (c >= 'a' && c <= 'f') {
      return static_cast<std::uint64_t>(c - 'a' + 10);
    }
    throw std::invalid_argument("McDigest::from_hex: non-hex digit");
  };
  McDigest d{0, 0};
  for (int i = 0; i < 16; ++i) {
    d.hi = (d.hi << 4) | nibble(text[static_cast<std::size_t>(i)]);
    d.lo = (d.lo << 4) | nibble(text[static_cast<std::size_t>(16 + i)]);
  }
  return d;
}

McDigest digest_connection(const sim::Connection& conn) {
  std::vector<sim::Time> scratch;
  return digest_connection(conn, scratch);
}

McDigest digest_connection(const sim::Connection& conn, std::vector<sim::Time>& scratch) {
  DigestBuilder b;

  // Sender: window/sequence state plus everything the RTO estimator and
  // Karn bookkeeping will consult later.
  const sim::TcpRenoSender& snd = conn.sender();
  b.add_double(snd.cwnd());
  b.add_double(snd.ssthresh());
  b.add_u64(snd.next_seq());
  b.add_u64(snd.snd_una());
  b.add_u64(snd.highest_sent());
  b.add_i64(snd.dupacks());
  b.add_bool(snd.in_fast_recovery());
  b.add_i64(snd.consecutive_timeouts());
  b.add_double(snd.current_rto());
  b.add_double(snd.smoothed_rtt());
  b.add_double(snd.rtt_var());
  b.add_bool(snd.rtt_timing_active());
  b.add_u64(snd.rtt_timed_seq());
  b.add_double(snd.rtt_timing_started());
  b.add_bool(snd.rtx_timer_armed());
  const auto& flight = snd.flight();
  b.add_u64(flight.size());
  for (std::size_t i = 0; i < flight.size(); ++i) {
    b.add_double(flight[i].first_sent);
    b.add_u64(flight[i].in_flight_at_send);
    b.add_bool(flight[i].retransmitted);
  }

  // Receiver: reassembly buffer and delayed-ACK state.
  const sim::TcpReceiver& rcv = conn.receiver();
  b.add_u64(rcv.next_expected());
  b.add_i64(rcv.unacked_in_order());
  b.add_bool(rcv.delack_armed());
  b.add_u64(rcv.out_of_order().size());
  for (const sim::SeqNo seq : rcv.out_of_order()) {
    b.add_u64(seq);
  }

  // Links: FIFO frontiers and serialization backlog (the only link
  // state that shapes future delivery times).
  b.add_double(conn.forward_link().fifo_frontier());
  b.add_double(conn.forward_link().busy_until());
  b.add_double(conn.reverse_link().fifo_frontier());
  b.add_double(conn.reverse_link().busy_until());

  // Timer wheel: the clock plus the sorted timestamps of every pending
  // event — a canonical view independent of scheduling order.
  const sim::EventQueue& queue = conn.event_queue();
  b.add_double(queue.now());
  scratch.clear();
  queue.pending_times(scratch);
  b.add_u64(scratch.size());
  for (const sim::Time at : scratch) {
    b.add_double(at);
  }

  return b.finish();
}

}  // namespace pftk::mc
