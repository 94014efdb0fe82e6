#include "netsim/link.h"

#include <algorithm>
#include <cassert>

namespace jqos::netsim {

Link::Link(Simulator& sim, NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
           double bandwidth_bps, bool preserve_order, QueueDiscPtr qdisc)
    : sim_(sim),
      from_(from),
      to_(to),
      latency_(std::move(latency)),
      loss_(std::move(loss)),
      bandwidth_bps_(bandwidth_bps),
      preserve_order_(preserve_order),
      qdisc_(std::move(qdisc)) {
  // Finite bandwidth implies a finite buffer: default to tail-drop if the
  // caller did not pick a discipline (Network always does).
  if (bandwidth_bps_ > 0.0 && qdisc_ == nullptr) {
    qdisc_ = make_queue_disc(QdiscConfig{.kind = QdiscKind::kTailDrop}, Rng(0));
  }
}

SimTime Link::admit(const PacketPtr& pkt, bool& mark) {
  const std::size_t bytes = pkt->wire_size();
  ++stats_.offered_packets;
  stats_.offered_bytes += bytes;

  if (fault_down_) {
    ++stats_.fault_drops;
    return -1;
  }
  if (degraded_ && degraded_rng_.bernoulli(degraded_loss_)) {
    ++stats_.fault_drops;
    return -1;
  }

  if (loss_->should_drop(sim_.now())) {
    ++stats_.dropped_packets;
    return -1;
  }

  SimTime depart = sim_.now();
  if (bandwidth_bps_ > 0.0) {
    // Drain everything the transmitter has finished serializing by now, so
    // the backlog counters reflect the instantaneous queue.
    while (!backlog_.empty() && backlog_.front().first <= depart) {
      backlog_bytes_ -= backlog_.front().second;
      backlog_.pop_front();
    }

    QueueSnapshot snap;
    snap.now = depart;
    snap.dequeue_at = std::max(depart, tx_free_at_);
    snap.backlog_bytes = backlog_bytes_;
    snap.backlog_packets = backlog_.size();
    snap.packet_bytes = bytes;
    snap.ecn_capable = pkt->ecn_capable;
    switch (qdisc_->admit(snap)) {
      case QdiscVerdict::kDrop:
        ++stats_.queue_drops;
        return -1;
      case QdiscVerdict::kMark:
        ++stats_.ecn_marked;
        mark = true;
        break;
      case QdiscVerdict::kEnqueue:
        break;
    }

    const auto tx_time = static_cast<SimDuration>(
        static_cast<double>(bytes) * 8.0 / bandwidth_bps_ * 1e6);
    tx_free_at_ = snap.dequeue_at + tx_time;
    depart = tx_free_at_;
    backlog_.push_back(depart, static_cast<std::uint32_t>(bytes));
    backlog_bytes_ += bytes;
    stats_.max_queue_bytes = std::max<std::uint64_t>(stats_.max_queue_bytes, backlog_bytes_);
    stats_.max_queue_packets =
        std::max<std::uint64_t>(stats_.max_queue_packets, backlog_.size());
  }

  SimTime arrive = depart + latency_->sample(sim_.now());
  if (degraded_) arrive += degraded_latency_;
  if (preserve_order_) {
    arrive = std::max(arrive, last_arrival_);
    last_arrival_ = arrive;
  }
  ++stats_.delivered_packets;
  stats_.delivered_bytes += bytes;
  return arrive;
}

// Copy-on-mark: PacketPtr is shared and const, so a CE mark clones the
// packet rather than scribbling on the copy other paths may still carry.
static PacketPtr with_ce_mark(PacketPool* pool, const PacketPtr& pkt) {
  auto marked = alloc_packet_copy(pool, *pkt);
  marked->ecn_ce = true;
  return marked;
}

void Link::send(PacketPtr pkt, DeliverFn deliver) {
  bool mark = false;
  const SimTime arrive = admit(pkt, mark);
  if (arrive < 0) return;
  PacketPtr out = mark ? with_ce_mark(pool_, pkt) : std::move(pkt);
  sim_.at(arrive, [out = std::move(out), deliver = std::move(deliver)] { deliver(out); });
}

void Link::send(PacketPtr pkt) {
  assert(deliver_ && "Link::send(pkt) requires set_deliver()");
  bool mark = false;
  const SimTime arrive = admit(pkt, mark);
  if (arrive < 0) return;
  if (mark) {
    PacketPtr out = with_ce_mark(pool_, pkt);
    sim_.at(arrive, [this, out = std::move(out)] { deliver_(out); });
    return;
  }
  // (this, pkt) is 24 bytes: well inside EventFn's inline buffer, no
  // std::function is copied on the per-packet path, and the moved-in pkt
  // never touches the refcount.
  sim_.at(arrive, [this, pkt = std::move(pkt)] { deliver_(pkt); });
}

}  // namespace jqos::netsim
