#include "netsim/network.h"

#include "common/logging.h"
#include "common/rng.h"

namespace jqos::netsim {

void Network::attach(Node& node) {
  const NodeId id = node.id();
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  nodes_[id] = &node;
}

Link& Network::add_link(NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
                        double bandwidth_bps, bool preserve_order) {
  return add_link(from, to, std::move(latency), std::move(loss), bandwidth_bps,
                  preserve_order, qdisc_);
}

Link& Network::add_link(NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
                        double bandwidth_bps, bool preserve_order, const QdiscConfig& qdisc) {
  QueueDiscPtr disc;
  if (bandwidth_bps > 0.0) {
    const std::uint64_t link_id =
        (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
    disc = make_queue_disc(qdisc, Rng::derived(qdisc_seed_, link_id));
  }
  auto link = std::make_unique<Link>(sim_, from, to, std::move(latency), std::move(loss),
                                     bandwidth_bps, preserve_order, std::move(disc));
  Link& ref = *link;
  // One dispatch closure per link, registered up front: the per-packet send
  // below then schedules a small inline event instead of rebuilding (and
  // copying) a std::function for every packet offered to the fabric.
  ref.set_deliver([this, to](const PacketPtr& delivered) {
    Node* n = node(to);
    if (n == nullptr) {
      ++routing_failures_;
      return;
    }
    n->handle_packet(delivered);
  });
  links_[{from, to}] = std::move(link);
  if (from >= out_.size()) out_.resize(from + 1);
  auto& adj = out_[from];
  bool replaced = false;
  for (auto& [dst, l] : adj) {
    if (dst == to) {
      l = &ref;
      replaced = true;
      break;
    }
  }
  if (!replaced) adj.emplace_back(to, &ref);
  return ref;
}

void Network::send(NodeId from, PacketPtr pkt) {
  Link* l = link(from, pkt->dst);
  if (l == nullptr) {
    ++routing_failures_;
    JQOS_WARN("no link " << from << " -> " << pkt->dst << " for " << to_string(pkt->type));
    return;
  }
  l->send(std::move(pkt));
}

}  // namespace jqos::netsim
