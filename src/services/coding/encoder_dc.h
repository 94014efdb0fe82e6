// CR-WAN encoding at the ingress DC (DC1) -- Algorithm 1 of the paper.
//
// DC1 keeps two sets of queues: an in-stream queue per flow, and a set of
// cross-stream queues per destination DC. An arriving data packet is copied
// into one queue of each type; full queues are encoded into coded packets
// (Reed-Solomon) and shipped to DC2 over the inter-DC path. Round-robin
// placement avoids putting two packets of the same flow in one cross-stream
// queue (Algorithm 1 lines 9-19); per-queue timers flush slow queues so one
// fast flow is never held hostage by slow peers (Section 4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "fec/coded_batch.h"
#include "overlay/datacenter.h"
#include "services/coding/coding_plan.h"

namespace jqos::services {

struct EncoderStats {
  std::uint64_t data_packets = 0;
  std::uint64_t in_batches = 0;
  std::uint64_t cross_batches = 0;
  std::uint64_t coded_sent = 0;
  std::uint64_t timer_flushes = 0;
  std::uint64_t single_packet_evictions = 0;  // Algorithm 1 line 18.
  std::uint64_t full_scan_flushes = 0;        // Algorithm 1 lines 13-16.
  std::uint64_t unknown_flow = 0;
  std::uint64_t flow_departures = 0;          // Sessions torn down (churn).
  std::uint64_t flushes_suppressed = 0;       // Batches dropped: dead/suspended DC2.
  std::uint64_t peer_suspends = 0;            // DC2 newly marked dead.
  std::uint64_t peer_probes = 0;              // Backed-off retry flushes attempted.
  std::uint64_t peer_reengages = 0;           // DC2 observed healthy again.
  std::uint64_t crash_wipes = 0;              // DC1 crashes that wiped encoder state.

  // The one merge definition every totals path (per-shard and cross-shard)
  // uses; a new field added here is summed everywhere or nowhere.
  EncoderStats& operator+=(const EncoderStats& o) {
    data_packets += o.data_packets;
    in_batches += o.in_batches;
    cross_batches += o.cross_batches;
    coded_sent += o.coded_sent;
    timer_flushes += o.timer_flushes;
    single_packet_evictions += o.single_packet_evictions;
    full_scan_flushes += o.full_scan_flushes;
    unknown_flow += o.unknown_flow;
    flow_departures += o.flow_departures;
    flushes_suppressed += o.flushes_suppressed;
    peer_suspends += o.peer_suspends;
    peer_probes += o.peer_probes;
    peer_reengages += o.peer_reengages;
    crash_wipes += o.crash_wipes;
    return *this;
  }
};

class CodingEncoderService final : public overlay::DcService {
 public:
  // `batch_id_base` namespaces batch ids so multiple encoder DCs sending to
  // one recovery DC never collide (the encoder's DcId shifted high).
  CodingEncoderService(overlay::DataCenter& dc, const CodingParams& params,
                       FlowRegistryPtr registry);

  const char* name() const override { return "cr-wan-encoder"; }

  // Claims kData packets tagged for the coding service: enqueues the packet
  // into its in-stream and cross-stream queues (Algorithm 1) and encodes any
  // queue that fills. Returns false for packets this service does not own
  // (other types/services), true once the packet has been consumed. O(1)
  // amortized per packet plus one zero-copy batch encode per full queue.
  bool handle(overlay::DataCenter& dc, const PacketPtr& pkt) override;

  // Flushes every non-empty queue immediately (end of experiment / ON
  // interval), as the timers eventually would.
  void flush_all();

  // Session teardown (churn workloads): encodes any residual in-stream
  // queue for the departing flow, then reclaims all state keyed by it --
  // the in-stream queue, the round-robin cursor, and its membership in the
  // dc2 group (shrinking the effective cross-batch size back down as the
  // population drains). Packets of the flow already sitting in cross
  // queues are left to flush on their timers; the coded batch remains
  // decodable because CodedMeta names (flow, seq) pairs explicitly. Must
  // be called BEFORE the flow leaves the registry (the residual flush
  // looks it up). O(1) amortized; keeps encoder memory O(live flows).
  void flow_departed(FlowId flow, NodeId dc2);

  const EncoderStats& stats() const { return stats_; }
  const CodingParams& params() const { return params_; }

  // Health oracle for destination DCs (the real system learns this from its
  // control channel). When set, a flush toward a DC reported dead is dropped
  // instead of shipped, and the encoder backs off exponentially before
  // probing that DC with another flush attempt. Never invoked for healthy
  // steady state beyond one boolean check per batch, and the suspension
  // machinery schedules no simulator events -- it is driven entirely by
  // arriving traffic, so an all-healthy run is bit-identical with or
  // without the oracle installed.
  void set_peer_health(std::function<bool(NodeId)> oracle) {
    peer_health_ = std::move(oracle);
  }

  // Fault layer: a DC1 crash loses every staged queue (the packets were in
  // process memory), the round-robin cursors, and the group membership; the
  // batch-id counter survives conceptually as a new process instance never
  // reuses ids (monotonic namespace per DC).
  void on_dc_crash() override;

 private:
  struct Queue {
    std::vector<PacketPtr> pkts;
    netsim::EventId timer = 0;
    bool timer_armed = false;
    std::uint64_t generation = 0;  // Guards against stale timer firings.
  };

  void enqueue_in_stream(const PacketPtr& pkt);
  void enqueue_cross_stream(const PacketPtr& pkt, NodeId dc2);

  // Encodes and clears one queue; `coded` many parity packets go to `dc2`.
  // Runs on the zero-copy BatchEncoder path: the per-instance arena and the
  // coded-packet scratch vector are reused across every batch this service
  // encodes, so steady-state batches allocate only the coded packets
  // themselves.
  void encode_queue(Queue& q, std::size_t coded, PacketType type, NodeId dc2);

  void arm_timer_in(FlowId flow);
  void arm_timer_cross(NodeId dc2, std::size_t index);
  void disarm(Queue& q);

  // True when a batch toward dc2 should be shipped now; false drops it
  // (suppressed flush) and advances the suspension/backoff state machine.
  bool peer_sendable(NodeId dc2);

  bool queue_contains_flow(const Queue& q, FlowId flow) const;

  overlay::DataCenter& dc_;
  CodingParams params_;
  FlowRegistryPtr registry_;
  std::uint32_t next_batch_id_;

  // Zero-copy coding state, reused for the lifetime of the service: the
  // encoder's shard arena grows to the largest batch shape once, then every
  // later batch frames and encodes without touching the allocator.
  fec::BatchEncoder encoder_;
  std::vector<PacketPtr> coded_scratch_;
  // flush_all ordering scratch (handlers are never reentrant).
  std::vector<FlowId> flush_scratch_;

  std::unordered_map<FlowId, Queue> in_qs_;
  // Destination DC -> fixed-size vector of cross-stream queues.
  std::map<NodeId, std::vector<Queue>> cross_qs_;
  // Round-robin cursor per flow (Algorithm 1 line 7).
  std::unordered_map<FlowId, std::size_t> rr_cursor_;
  // Flows observed per destination-DC group. A group with fewer live flows
  // than k can never fill a k-batch (no two packets of one flow share a
  // batch), so the effective batch size adapts to the group population --
  // the "pick a further subset of flows" step of Section 4.1.
  std::map<NodeId, std::set<FlowId>> group_flows_;

  // Lazy (event-free) suspension state per destination DC; see
  // peer_sendable(). retry_at is the earliest time the next flush attempt
  // toward a suspended DC will actually probe it.
  struct PeerState {
    bool suspended = false;
    SimTime retry_at = 0;
    SimDuration backoff = 0;
  };
  std::function<bool(NodeId)> peer_health_;
  std::map<NodeId, PeerState> peers_;

  EncoderStats stats_;
};

}  // namespace jqos::services
