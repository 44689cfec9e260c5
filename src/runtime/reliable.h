// Reliable in-order exactly-once delivery over a lossy Endpoint.
//
// The decorator that makes chaos survivable: stacked above the fault
// injector (or a genuinely lossy fabric), it restores exactly the delivery
// contract the topology protocol bodies (runtime/topology.h) were written
// against — per-link FIFO, no loss, no duplicates, no corruption — so the
// bodies run unchanged and produce bit-identical results under any
// lossy-but-connected fault schedule.
//
//     protocol body -> ReliableEndpoint -> FaultInjectingEndpoint -> fabric
//
// Mechanism (classic sliding-window ARQ over the frame `seq` field):
//  - send() wraps each message in an envelope frame (comm::kReliableDataKind)
//    whose body is [fnv1a32 crc | original kind | original seq | payload] and
//    whose header seq is a per-link reliable sequence number (rseq).  The
//    envelope stays in an outstanding window until the peer acks it
//    (kReliableAckKind, seq = rseq); unacked envelopes are retransmitted on
//    an exponential backoff (ReliabilityConfig) until acked or the retry
//    budget ends.  rseq starts within a few values of 2^64 so every session
//    exercises wraparound; all comparisons go through comm::seq_less (serial
//    number arithmetic).
//  - The receive side acks every envelope (duplicates too — the ack may have
//    been the thing that was lost), verifies the crc (a corrupt envelope is
//    dropped unacked; retransmission replaces it), delivers in-order through
//    an expected-rseq cursor plus a reorder buffer, and drops duplicates.
//  - Liveness: heartbeats flow to every active peer from within blocked
//    transport calls; a peer silent past silence_timeout, out of retries, or
//    whose link died and could not be reconnected is declared dead.
//  - Clean shutdown (the tail-ack problem): flush() first drains the
//    outstanding window, then fences the link with a bye frame
//    (comm::kByeKind) and lingers — re-acking duplicate data and re-sending
//    the bye — until every active peer has byed back, closed its link, or
//    gone silent.  A peer's bye certifies "everything I sent you is acked",
//    so a lingering endpoint never abandons a peer that is still
//    retransmitting.  Departure during linger is clean by construction: both
//    sides' data was acked before either sent its bye.
//
// Peer death is surfaced per FailurePolicy: fail-fast throws util::CheckError
// naming the peer ("remote worker N failed: ..."); in evict mode (the
// parameter server's endpoint only) a synthetic kPeerDeadKind message is
// delivered to the protocol body instead, which evicts the worker and keeps
// the session alive.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "dist/session.h"
#include "runtime/transport.h"

namespace sidco::runtime {

/// Synthetic message kind delivered by ReliableEndpoint (never on the wire)
/// when a peer is confirmed dead and the endpoint is in deliver-peer-death
/// (evict) mode.  `from` is the dead peer; the body is empty.
inline constexpr std::uint8_t kPeerDeadKind = 0xEE;

/// Everything the reliable layer needs, resolved from the session config.
struct ReliableParams {
  std::size_t self = 0;
  std::size_t endpoints = 0;
  std::size_t max_retries = 12;
  std::chrono::duration<double, std::milli> backoff_initial{2.0};
  std::chrono::duration<double, std::milli> backoff_max{200.0};
  std::size_t window = 64;
  std::chrono::milliseconds silence_timeout{30000};
  std::chrono::milliseconds heartbeat_interval{1000};
  /// Evict mode: deliver kPeerDeadKind instead of throwing on peer death.
  bool deliver_peer_death = false;
};

[[nodiscard]] ReliableParams reliable_params_from(
    const dist::SessionConfig& config, std::size_t self,
    bool deliver_peer_death);

/// The session watchdog deadline for `config`: config.deadline_seconds when
/// set, else the SIDCO_SESSION_DEADLINE environment variable (seconds), else
/// nullopt.  Engines arm Transport::set_deadline with it before starting
/// participants.
[[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
session_deadline(const dist::SessionConfig& config);

class ReliableEndpoint final : public Endpoint {
 public:
  ReliableEndpoint(Endpoint& inner, const ReliableParams& params);

  bool send(std::size_t to, TransportMessage message) override;
  std::optional<TransportMessage> recv() override;
  std::optional<TransportMessage> recv_for(std::chrono::milliseconds timeout,
                                           bool& timed_out) override;

  /// Drain + bye + linger (see file comment).  Call before the participant
  /// goes quiet; afterwards every accepted message is acked by its peer.
  void flush() override;

  [[nodiscard]] LinkState link_state(std::size_t peer) const override;
  [[nodiscard]] bool is_shut_down() const override;

  /// Retransmit/reconnect counters of this layer plus everything beneath it
  /// (the fault injector's injection counts when one is stacked).
  [[nodiscard]] TransportCounters counters() const override;

 private:
  using Clock = std::chrono::steady_clock;

  struct SeqLess {
    bool operator()(std::uint64_t a, std::uint64_t b) const;
  };

  struct Outstanding {
    TransportMessage envelope;
    Clock::time_point next_retry;
    std::chrono::duration<double, std::milli> backoff;
    std::size_t attempts = 0;  ///< retransmissions so far (0 = initial send)
  };

  struct PeerState {
    bool active = false;  ///< this link has carried traffic
    std::uint64_t next_rseq;
    std::uint64_t expected;
    std::map<std::uint64_t, Outstanding, SeqLess> outstanding;
    std::map<std::uint64_t, TransportMessage, SeqLess> reorder;
    Clock::time_point last_heard;
    Clock::time_point last_beat;
    bool byed_out = false;
    bool byed_in = false;
    bool dead = false;
    bool death_delivered = false;
    bool reconnect_tried = false;
  };

  /// One bounded service round: waits up to `max_wait` for an inner frame
  /// (bounded further by the earliest retransmit/heartbeat timer), handles
  /// it, then runs timers.  Returns false when the inner transport is shut
  /// down and drained.
  bool pump(std::chrono::milliseconds max_wait);
  void handle(TransportMessage frame);
  void handle_envelope(TransportMessage frame);
  void deliver_in_order(std::size_t peer);
  void run_timers();
  void retransmit_due(std::size_t peer, Clock::time_point now);
  void check_links(Clock::time_point now);
  void send_ack(std::size_t peer, std::uint64_t rseq);
  void send_beacon(std::size_t peer, std::uint8_t kind);
  bool inner_send(std::size_t peer, TransportMessage frame);
  /// One reconnect attempt on a closed link.  On success re-sends the whole
  /// outstanding window (counted as retransmits) and returns true; on
  /// failure returns false and leaves the verdict to the caller.
  bool reconnect_and_resend(std::size_t peer);
  void touch(std::size_t peer);
  void peer_dead(std::size_t peer, const std::string& why);
  [[nodiscard]] std::string peer_name(std::size_t peer) const;
  [[nodiscard]] bool linger_settled(const PeerState& p,
                                    Clock::time_point now) const;

  Endpoint& inner_;
  ReliableParams params_;
  std::vector<PeerState> peers_;
  std::deque<TransportMessage> ready_;  ///< in-order deliveries awaiting recv
  TransportCounters counters_;
  bool lingering_ = false;  ///< inside flush(): peer death is clean, not fatal
};

}  // namespace sidco::runtime
