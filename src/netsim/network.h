// The network fabric: nodes addressed by NodeId, connected by directed
// links. Nodes (end hosts, data centers) implement the Node interface and
// call Network::send to transmit; the fabric applies the link's loss/delay
// processes and hands surviving packets to the destination node.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/packet.h"
#include "netsim/link.h"
#include "netsim/queue_disc.h"
#include "netsim/simulator.h"

namespace jqos::netsim {

class Node {
 public:
  virtual ~Node() = default;

  virtual NodeId id() const = 0;

  // Delivery upcall: `pkt` survived the link and has arrived at this node.
  virtual void handle_packet(const PacketPtr& pkt) = 0;
};

class Network {
 public:
  // `qdisc` is the default queue-disc configuration applied to every
  // finite-bandwidth link (zero-bandwidth links have no queue and never get
  // a discipline). RED's probabilistic drops draw from an Rng derived from
  // `qdisc_seed` and the (from, to) pair — a stable identity, so traces are
  // independent of link-creation order.
  explicit Network(Simulator& sim, QdiscConfig qdisc = {}, std::uint64_t qdisc_seed = 0)
      : sim_(sim), qdisc_(std::move(qdisc)), qdisc_seed_(qdisc_seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }

  // Allocates a fresh NodeId (ids start at 1; 0 is kInvalidNode).
  NodeId allocate_id() { return next_id_++; }

  // Registers a node; the node must outlive the network. A node must be
  // attached before packets can be delivered to it.
  void attach(Node& node);

  // Installs a directed link. Replaces any existing from->to link.
  // Finite-bandwidth links get a queue disc built from the network-wide
  // config (or the per-link override of the second form).
  Link& add_link(NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
                 double bandwidth_bps = 0.0, bool preserve_order = true);
  Link& add_link(NodeId from, NodeId to, LatencyModelPtr latency, LossModelPtr loss,
                 double bandwidth_bps, bool preserve_order, const QdiscConfig& qdisc);

  const QdiscConfig& qdisc_config() const { return qdisc_; }

  // Sends pkt->dst via the from->dst link. Requires the link to exist;
  // packets to unattached or unreachable nodes are counted and dropped.
  // By-value so a temporary moves through to the scheduled delivery event
  // without refcount traffic.
  void send(NodeId from, PacketPtr pkt);

  Link* link(NodeId from, NodeId to) {
    if (from < out_.size()) {
      for (const auto& [dst, l] : out_[from]) {
        if (dst == to) return l;
      }
    }
    return nullptr;
  }
  const Link* link(NodeId from, NodeId to) const {
    return const_cast<Network*>(this)->link(from, to);
  }

  // Visits every installed link (deterministic (from, to) order); used by
  // the experiment harness to aggregate per-link counters such as
  // fault_drops without enumerating the topology itself.
  template <typename Fn>
  void for_each_link(Fn&& fn) const {
    for (const auto& [key, l] : links_) fn(*l);
  }

  std::uint64_t routing_failures() const { return routing_failures_; }

 private:
  Simulator& sim_;
  QdiscConfig qdisc_;
  std::uint64_t qdisc_seed_ = 0;
  Node* node(NodeId id) const { return id < nodes_.size() ? nodes_[id] : nullptr; }

  NodeId next_id_ = 1;
  // Per-packet structures: node lookup is a dense array indexed by NodeId
  // (allocate_id hands out small consecutive ids), and link lookup is a
  // per-source adjacency list scanned linearly -- real fan-out is a handful
  // of destinations, so the scan beats a tree or hash walk. The ownership
  // map below keeps the deterministic (from, to) iteration order that
  // for_each_link promises; it is never touched on the packet path.
  std::vector<Node*> nodes_;
  std::vector<std::vector<std::pair<NodeId, Link*>>> out_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
  std::uint64_t routing_failures_ = 0;
};

}  // namespace jqos::netsim
