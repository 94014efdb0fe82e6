// The J-QoS receiver: the end-point half of the reliability layer that
// logically sits between transport and network (Section 3.4, Section 5).
//
// Responsibilities:
//  * deliver direct-path packets up the stack and track per-flow sequence
//    state (gap detection);
//  * run the two-state Markov timeout to catch tail losses with no
//    subsequent packet to reveal the gap;
//  * issue NACKs to the nearby DC (DC2) and account recovery latency;
//  * buffer recent data packets so it can (a) answer cooperative-recovery
//    requests for other receivers' losses and (b) locally decode in-stream
//    coded packets sent by DC2;
//  * answer DC2's NackCheck probes (spurious-recovery guard).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/packet.h"
#include "common/rng.h"
#include "common/stats.h"
#include "endpoint/markov_detector.h"
#include "fec/coded_batch.h"
#include "netsim/network.h"

namespace jqos::endpoint {

// Bounded FIFO of sequence numbers backed by a circular vector. A deque
// would allocate/free a chunk every ~chunk worth of push/pop churn, which
// the zero-alloc steady-state guard (docs/MEMORY.md) counts; the ring grows
// amortized up to the history cap and then cycles allocation-free.
class SeqRing {
 public:
  void push_back(SeqNo s) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) % buf_.size()] = s;
    ++count_;
  }
  SeqNo front() const { return buf_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) % buf_.size();
    --count_;
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  void grow() {
    std::vector<SeqNo> next(buf_.empty() ? 16 : buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) % buf_.size()];
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<SeqNo> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

// Overlay-death detection and direct-path failover (receiver side).
//
// DC2 answers every NACK one way or another -- with recovered packets,
// in-stream coded packets, or a kNackCheck when it has no coverage -- so a
// run of NACKs with no DC2-originated packet in between is a death signal.
// Path-switching flows (no direct copies) additionally watch for outright
// data silence, since all their traffic rides the overlay. Once the overlay
// is declared down the receiver notifies its overlay handler (the scenario
// wires this to the sender's direct-path override), suppresses regular
// NACKs, and probes DC2 with capped exponential backoff; any
// overlay-originated arrival re-engages immediately.
struct FailoverParams {
  bool enabled = false;
  // Declare the overlay dead after this many consecutive unanswered NACKs.
  int max_unanswered_nacks = 3;
  // The NACK counter alone is not enough: a loss burst can emit several
  // NACKs within one RTT, before the first recovery reply has had time to
  // return. The counter therefore only declares death once the overlay has
  // also been signal-silent (no DC2-originated packet, and no overlay data
  // for path-switching flows) for at least this long.
  SimDuration nack_silence = msec(200);
  // Path-switching flows: data itself rides the overlay, so every arriving
  // data packet (while up) counts as an overlay life sign, and the overlay
  // is declared dead when NO sign at all -- data or DC2 control traffic --
  // has been heard for `data_silence` while some flow is live. Receiver-wide
  // on purpose: a single finished flow going quiet is normal; total silence
  // across every concurrent flow is not.
  bool overlay_carries_data = false;
  SimDuration data_silence = msec(500);
  // Probe backoff while down: base, doubling to cap.
  SimDuration probe_base = msec(200);
  SimDuration probe_cap = sec(2);
};

struct ReceiverConfig {
  // DC the receiver recovers through (its nearby DC2); kInvalidNode
  // disables recovery entirely (plain Internet receiver).
  NodeId dc2 = kInvalidNode;
  // Service NACKs are addressed to at DC2 (kCode -> CR-WAN recovery,
  // kCache -> cache pulls); set by the service-selection decision.
  ServiceType recovery_service = ServiceType::kCode;
  // Initial direct-path RTT estimate for the long timeout.
  SimDuration rtt_estimate = msec(100);
  MarkovParams markov;
  // Ablation D3: false replaces the two-state model with a single fixed
  // timeout of `single_timeout` (Section 6.4 reports 5x more NACKs).
  bool use_markov = true;
  SimDuration single_timeout = msec(25);
  // Per-flow history buffer (cooperative responses / in-stream decode).
  std::size_t buffer_packets = 1024;
  // A missing packet not recovered within this span is declared lost (the
  // paper counts recovery beyond one RTT as a loss); 0 means one RTT.
  SimDuration recovery_give_up = 0;
  // Re-NACK interval for still-missing packets (retries lost NACKs).
  SimDuration renack_interval = msec(100);
  // Timer management: stop the per-flow timer after this much inactivity.
  SimDuration idle_stop = sec(2);
  // How long a cooperative request for a not-yet-received packet is held
  // before being dropped (covers direct-path delay spread across peers).
  SimDuration coop_defer_window = msec(150);
  // Straggler model for cooperative-recovery responses: with probability
  // `coop_slow_prob` a response is delayed by a uniform draw from
  // [coop_slow_min, coop_slow_max] (loaded hosts, scheduling jitter --
  // the behaviour the extra cross-coded packets protect against).
  double coop_slow_prob = 0.0;
  SimDuration coop_slow_min = msec(120);
  SimDuration coop_slow_max = msec(450);
  // Record per-packet delay Samples (recovery_delay_ms / direct_delay_ms).
  // These grow one double per delivered packet -- fine for figure runs,
  // unbounded for million-session soaks, which turn them off and rely on
  // O(1)-memory sketches instead (see workload::run_churn).
  bool record_delay_samples = true;
  std::uint64_t rng_seed = 1;
  // Overlay-death detection; disabled by default (zero events, zero extra
  // RNG draws, bit-identical traces when off).
  FailoverParams failover;
};

// One record per packet the application layer learns about.
struct DeliveryRecord {
  FlowId flow = 0;
  SeqNo seq = 0;
  SimTime sent_at = 0;       // 0 when unknown (recovered packets).
  SimTime delivered_at = 0;
  bool recovered = false;    // Arrived via J-QoS recovery, not direct path.
  bool lost = false;         // Gave up: never delivered.
  // The direct-path copy arrived after the packet had already been
  // delivered (usually after a recovery raced a delay spike): the packet
  // was late, not lost. Consumers use this to reclassify.
  bool late_direct = false;
  SimTime detected_missing_at = 0;  // When the gap/timer fired (if ever).
};

struct ReceiverStats {
  std::uint64_t delivered_direct = 0;
  std::uint64_t delivered_recovered = 0;
  std::uint64_t self_decoded = 0;       // In-stream decodes at the receiver.
  std::uint64_t duplicates = 0;
  std::uint64_t losses_detected = 0;
  std::uint64_t losses_given_up = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t tail_nacks_sent = 0;
  std::uint64_t nack_confirms_sent = 0;
  std::uint64_t coop_responses_sent = 0;
  std::uint64_t coop_misses = 0;        // Asked for a packet we also lack.
  std::uint64_t coop_deferred = 0;      // Answered once the packet arrived.
  std::uint64_t spurious_timeouts = 0;  // Timer fired, nothing was missing.
  std::uint64_t suspected_tail_dropped = 0;  // Timer suspicions never confirmed.
  std::uint64_t failovers = 0;          // Overlay declared dead.
  std::uint64_t reengages = 0;          // Overlay declared back up.
  std::uint64_t probes_sent = 0;        // Backed-off overlay probes.
  std::uint64_t nacks_suppressed = 0;   // NACKs skipped while the overlay was down.
};

class Receiver final : public netsim::Node {
 public:
  // `pkt` is the delivered packet (payload for the upper layer); nullptr
  // for records that report a given-up loss.
  using DeliverFn = std::function<void(const DeliveryRecord&, const PacketPtr& pkt)>;

  Receiver(netsim::Network& net, const ReceiverConfig& config, DeliverFn on_delivery = {});

  NodeId id() const override { return node_id_; }

  // Replaces the delivery upcall (used when the upper layer is constructed
  // after the receiver, e.g. the TCP model).
  void set_delivery_handler(DeliverFn fn) { on_delivery_ = std::move(fn); }

  // Starts tracking a flow (first expected sequence number is 0).
  void expect_flow(FlowId flow);

  // Stops tracking a flow and reclaims ALL of its state (gap map, reorder
  // buffer, history buffer, deferred coop requests, in-stream coded
  // batches, detector, timer). Packets of the flow that are still in
  // flight arrive as unknown-flow packets, which every handler already
  // ignores; a cooperative request for a forgotten flow counts as a miss.
  // Session churn depends on this being a complete teardown: per-flow
  // memory must be O(live flows), not O(flows ever seen).
  void forget_flow(FlowId flow);

  void handle_packet(const PacketPtr& pkt) override;

  const ReceiverStats& stats() const { return stats_; }
  // Recovery latency samples (detection -> recovered delivery), in ms.
  const Samples& recovery_delay_ms() const { return recovery_delay_ms_; }
  // One-way delivery delay samples for direct-path packets, in ms.
  const Samples& direct_delay_ms() const { return direct_delay_ms_; }

  // Estimated RTT feed (e.g. from the scenario builder's path data).
  void set_rtt_estimate(SimDuration rtt);

  // Packet storage pool of this receiver's shard (see docs/MEMORY.md); null
  // (the default) means heap allocation. Set at build time, before traffic.
  void set_pool(PacketPool* pool) { pool_ = pool; }

  // Overlay up/down transitions (failover layer). The scenario wires this
  // to the sender's set_overlay_down via a modeled control-channel delay.
  using OverlayEventFn = std::function<void(bool up, SimTime at)>;
  void set_overlay_handler(OverlayEventFn fn) { on_overlay_ = std::move(fn); }
  bool overlay_up() const { return overlay_up_; }

 private:
  struct MissingInfo {
    SimTime detected_at = 0;
    SimTime last_nack_at = 0;
    int nack_count = 0;
  };

  struct FlowState {
    SeqNo next_expected = 0;
    // Contiguity edge: all seq < next_expected are delivered, recovered, or
    // given up. Gaps above the edge live in `missing`; out-of-order
    // arrivals above the edge in `arrived_ahead`.
    std::map<SeqNo, MissingInfo> missing;
    std::map<SeqNo, bool> arrived_ahead;  // value: was it `recovered`?
    // Recent packets for coop responses / self-decode, FIFO-bounded.
    std::unordered_map<SeqNo, PacketPtr> buffer;
    SeqRing buffer_order;
    // Cooperative requests for packets that have not arrived yet (the
    // requester's detection raced our slower direct path): answered as
    // soon as the packet lands, dropped after a short window.
    std::map<SeqNo, std::pair<PacketPtr, SimTime>> deferred_coop;
    // In-stream coded packets by batch, kept until decode or eviction.
    std::unordered_map<std::uint32_t, std::vector<PacketPtr>> in_coded;
    std::deque<std::uint32_t> in_coded_order;
    MarkovDetector detector;
    netsim::EventId timer = 0;
    bool timer_armed = false;
    std::uint64_t timer_gen = 0;
    SimTime last_arrival = -1;   // Last direct-path arrival (Markov input).
    SimTime last_activity = -1;  // Any delivery, incl. recoveries: keeps the
                                 // timer alive through outages so tail
                                 // recovery continues wave after wave.
    // One past the highest sequence number with delivery evidence; holes at
    // or above this may be timer suspicions about packets that were never
    // sent (burst boundary), so they are dropped silently on give-up.
    SeqNo evidence_horizon = 0;

    explicit FlowState(const MarkovDetector& d) : detector(d) {}
  };

  void on_data(const PacketPtr& pkt, bool recovered);
  void on_in_coded(const PacketPtr& pkt);
  void on_coop_request(const PacketPtr& pkt);
  void on_nack_check(const PacketPtr& pkt);
  void on_timer(FlowId flow, std::uint64_t gen);

  // Failover machinery; all no-ops unless config_.failover.enabled.
  void note_overlay_evidence();
  void declare_overlay_down();
  void declare_overlay_up();
  void arm_probe();
  void on_probe(std::uint64_t gen);
  void send_probe();
  bool any_active_flow() const;

  // Records every untracked sequence number in [from, to_exclusive) as
  // missing and NACKs them. `horizon` is the flow's evidence horizon from
  // before the arrival that revealed the gap.
  void note_missing(FlowState& fs, FlowId flow, SeqNo from, SeqNo horizon,
                    SeqNo to_exclusive);
  void send_nack(FlowId flow, FlowState& fs, const std::vector<SeqNo>& missing, bool tail,
                 bool probe = false);
  void deliver(FlowId flow, SeqNo seq, const PacketPtr& pkt, bool recovered,
               SimTime detected_at);
  void advance_contiguity(FlowState& fs, FlowId flow);
  void remember(FlowState& fs, const PacketPtr& pkt);
  void try_self_decode(FlowId flow, FlowState& fs, std::uint32_t batch_id);
  void give_up_stale(FlowId flow, FlowState& fs);
  void arm_timer(FlowId flow, FlowState& fs, SimDuration timeout);
  bool is_missing_or_future(const FlowState& fs, SeqNo seq) const;
  SimDuration give_up_span(const FlowState& fs) const;

  netsim::Network& net_;
  NodeId node_id_;
  ReceiverConfig config_;
  DeliverFn on_delivery_;
  Rng rng_;
  PacketPool* pool_ = nullptr;
  // Failover state (see FailoverParams). The probe timer follows the same
  // generation-guard pattern as the per-flow timers.
  OverlayEventFn on_overlay_;
  bool overlay_up_ = true;
  // Latest overlay life sign: DC2-originated control traffic, or (for
  // path-switching receivers, while up) any data arrival. -1 = never.
  SimTime last_overlay_signal_ = -1;
  int unanswered_nacks_ = 0;
  bool probe_armed_ = false;
  netsim::EventId probe_timer_ = 0;
  std::uint64_t probe_gen_ = 0;
  SimDuration probe_backoff_ = 0;
  std::unordered_map<FlowId, FlowState> flows_;
  ReceiverStats stats_;
  Samples recovery_delay_ms_;
  Samples direct_delay_ms_;
  // Reused scratch for in-stream self-decodes (fec::decode_batch arena
  // overload): sized by the largest batch seen, recycled across decodes.
  fec::ShardArena decode_arena_;
  // Per-call scratch recycled across packets (receivers run on one event
  // loop, so no handler runs reentrantly). nack_scratch_ keeps the missing
  // vector and serialization capacity warm; the others replace per-call
  // locals.
  NackInfo nack_scratch_;
  std::vector<SeqNo> gap_scratch_;    // note_missing: freshly detected holes
  std::vector<SeqNo> stale_scratch_;  // on_timer: holes due for re-NACK
  std::vector<std::pair<std::size_t, std::span<const std::uint8_t>>> present_scratch_;
  std::vector<std::pair<std::size_t, PacketKey>> wanted_scratch_;
};

}  // namespace jqos::endpoint
