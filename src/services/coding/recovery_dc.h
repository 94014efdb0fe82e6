// CR-WAN recovery at the egress DC (DC2) -- Sections 3.4 and 4.4.
//
// DC2 stores arriving coded packets (indexed by the data-packet keys they
// cover) and drives recovery when receivers NACK:
//
//  * Random single losses covered by an in-stream batch are served by
//    sending the in-stream coded packet(s) to the receiver, which decodes
//    locally against the packets it already holds -- the cheap first line
//    of defense.
//  * Bursty losses / outages trigger cooperative recovery: DC2 solicits the
//    other receivers of the batch for their data packets (incoming traffic
//    is free), decodes once enough symbols arrive (responses + coded >= k,
//    so up to `cross_coded` stragglers are tolerated), and sends the
//    reconstructed packets to the requesters. The operation fails silently
//    at a deadline (Section 4.4).
//  * A NACK that precedes its coded packet (burst/session boundary) makes
//    DC2 check back with the receiver (kNackCheck / kNackConfirm) before
//    recovering, avoiding spurious recoveries (Section 3.4).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fec/coded_batch.h"
#include "overlay/datacenter.h"
#include "services/coding/coding_plan.h"

namespace jqos::services {

struct RecoveryParams {
  // Deadline for a cooperative recovery round; "since recovery is time
  // sensitive, the protocol fails silently if not enough ... cooperative
  // recovery responses are received within a set deadline".
  SimDuration coop_deadline = msec(200);
  // How long coded packets stay useful at DC2.
  SimDuration batch_ttl = sec(10);
  // Confirmation window for NACKs that arrive before their coded packets.
  SimDuration pending_nack_ttl = sec(2);
  // Cap on batches recovered per tail NACK, bounding outage-recovery cost.
  std::size_t max_tail_batches = 64;
  // Tail probes only recover from batches at least this old: younger
  // batches cover packets whose direct copies are likely still in flight,
  // and recovering those is spurious work that races the Internet path.
  SimDuration tail_min_batch_age = msec(100);
};

struct RecoveryStatsDc {
  std::uint64_t nacks = 0;
  std::uint64_t nack_keys = 0;
  std::uint64_t in_stream_served = 0;
  std::uint64_t coop_ops = 0;
  std::uint64_t coop_requests_sent = 0;
  std::uint64_t coop_responses = 0;
  std::uint64_t coop_success = 0;
  std::uint64_t coop_deadline_failures = 0;
  std::uint64_t recovered_sent = 0;
  std::uint64_t nack_checks_sent = 0;
  std::uint64_t nack_confirms = 0;
  std::uint64_t uncovered_keys = 0;
  std::uint64_t straggler_responses = 0;  // Responses after the op finished.
  std::uint64_t batches_stored = 0;
  std::uint64_t batches_expired = 0;
  std::uint64_t recheck_probes = 0;  // Coverage arrived for a pending NACK.
  std::uint64_t crash_wipes = 0;     // DC crashes that wiped recovery state.
  std::uint64_t stale_timers = 0;    // Pre-crash timers neutered by the epoch guard.

  // The one merge definition every totals path (per-shard and cross-shard)
  // uses; a new field added here is summed everywhere or nowhere.
  RecoveryStatsDc& operator+=(const RecoveryStatsDc& o) {
    nacks += o.nacks;
    nack_keys += o.nack_keys;
    in_stream_served += o.in_stream_served;
    coop_ops += o.coop_ops;
    coop_requests_sent += o.coop_requests_sent;
    coop_responses += o.coop_responses;
    coop_success += o.coop_success;
    coop_deadline_failures += o.coop_deadline_failures;
    recovered_sent += o.recovered_sent;
    nack_checks_sent += o.nack_checks_sent;
    nack_confirms += o.nack_confirms;
    uncovered_keys += o.uncovered_keys;
    straggler_responses += o.straggler_responses;
    batches_stored += o.batches_stored;
    batches_expired += o.batches_expired;
    recheck_probes += o.recheck_probes;
    crash_wipes += o.crash_wipes;
    stale_timers += o.stale_timers;
    return *this;
  }
};

class RecoveryService final : public overlay::DcService {
 public:
  RecoveryService(overlay::DataCenter& dc, const RecoveryParams& params,
                  FlowRegistryPtr registry);

  const char* name() const override { return "cr-wan-recovery"; }

  bool handle(overlay::DataCenter& dc, const PacketPtr& pkt) override;

  // Fault layer: a crash loses everything a process restart would lose --
  // stored batches, the key index, in-flight cooperative ops (their deadline
  // timers are cancelled AND epoch-guarded), pending NACKs, and the sweep
  // timer. The service then rebuilds from newly arriving coded packets;
  // receivers re-NACK on their own timers.
  void on_dc_crash() override;

  const RecoveryStatsDc& stats() const { return stats_; }

  // Number of coded batches currently held.
  std::size_t batches_held() const { return batches_.size(); }

  // Test hook (stale-timer regression): invokes the coop-deadline callback
  // exactly as a timer armed in epoch `epoch` would -- a stale epoch must be
  // a counted no-op even when batch_id has been reused since.
  void debug_fire_deadline(std::uint32_t batch_id, std::uint64_t epoch) {
    finish_op_failure(batch_id, epoch);
  }
  std::uint64_t epoch() const { return epoch_; }

 private:
  struct BatchState {
    CodedMeta meta;
    std::vector<PacketPtr> coded;
    SimTime first_seen = 0;
    bool is_cross = false;
  };

  // One cooperative recovery operation per cross-stream batch.
  struct CoopOp {
    std::uint32_t batch_id = 0;
    // position in the codeword -> payload obtained from a peer.
    std::map<std::size_t, std::vector<std::uint8_t>> responses;
    // missing key -> receiver that asked for it.
    std::map<PacketKey, NodeId> requesters;
    netsim::EventId deadline_event = 0;
    SimTime started_at = 0;
  };

  struct PendingNack {
    NodeId receiver = kInvalidNode;
    SimTime expires_at = 0;
    bool confirmed = false;
    bool check_sent = false;
  };

  void on_coded(const PacketPtr& pkt);
  void on_nack(const PacketPtr& pkt, bool confirm);
  void on_coop_response(const PacketPtr& pkt);

  // Attempts recovery of `key` for `receiver`; returns true if some path
  // (in-stream serve or cooperative op) was started or already underway.
  bool recover_key(const PacketKey& key, NodeId receiver, bool prefer_coop);

  // Serves the in-stream coded packets covering `key` to the receiver.
  bool serve_in_stream(const PacketKey& key, NodeId receiver);

  // Starts (or joins) the cooperative op for the cross batch covering key.
  bool start_coop(const PacketKey& key, NodeId receiver);

  void maybe_finish_op(CoopOp& op);
  // Deadline callback. `epoch` is the service epoch the timer was armed in;
  // a timer scheduled before a crash wipe finds epoch != epoch_ and is a
  // counted no-op (the Receiver::forget_flow generation-guard pattern).
  void finish_op_failure(std::uint32_t batch_id, std::uint64_t epoch);

  // Reclaims expired batches / pending NACKs. Freshness is enforced lazily
  // at lookup time (batch_fresh), so the sweep only frees memory and bumps
  // batches_expired -- its timing can never change recovery behavior. The
  // sweep itself runs on a timer aligned to the whole-second simulated-time
  // grid: the set of (batch, sweep-tick) expiry decisions is then a pure
  // function of store times, not of which flow's packet happened to arrive
  // first -- the property the sharded runner's merge-determinism relies on
  // when unrelated path groups share one recovery DC.
  void sweep_batches();
  void arm_sweep();

  // TTL filter applied on every lookup; see sweep_batches().
  bool batch_fresh(const BatchState& b) const {
    return dc_.now() - b.first_seen <= params_.batch_ttl;
  }

  BatchState* cross_batch_for(const PacketKey& key);
  BatchState* in_batch_for(const PacketKey& key);

  overlay::DataCenter& dc_;
  RecoveryParams params_;
  FlowRegistryPtr registry_;

  std::unordered_map<std::uint32_t, BatchState> batches_;
  std::unordered_map<PacketKey, std::vector<std::uint32_t>> key_index_;
  std::unordered_map<std::uint32_t, CoopOp> ops_;
  std::unordered_map<PacketKey, PendingNack> pending_;
  bool sweep_armed_ = false;
  netsim::EventId sweep_event_ = 0;
  // Bumped on every crash wipe; every deadline timer carries the epoch it
  // was armed in so stale ones are no-ops.
  std::uint64_t epoch_ = 0;

  // Scratch for the zero-copy decode path (see fec::decode_batch's arena
  // overload): grows to the largest batch shape once, then every decode
  // frames and reconstructs in place.
  fec::ShardArena decode_arena_;

  // Per-call scratch recycled across packets (services run on their
  // shard's one event loop, so handlers never run reentrantly).
  NackInfo nack_scratch_;
  std::vector<PacketKey> keys_scratch_;
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present_scratch_;

  RecoveryStatsDc stats_;
};

}  // namespace jqos::services
