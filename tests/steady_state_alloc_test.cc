// The enforcement arm of the object-pool subsystem: with pools enabled, the
// steady-state packet path must touch the global allocator ZERO times per
// packet. This binary links jqos_alloc_probe, which replaces global operator
// new/delete with counting wrappers; after a warmup that fills every pool
// and amortized buffer, a measured window asserts the allocation delta is
// exactly zero. Under ASan/TSan the probe is stubbed out (the sanitizer owns
// the heap) and these tests skip -- the Release leg of CI is the guard.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/alloc_probe.h"
#include "common/packet.h"
#include "common/packet_pool.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "netsim/latency_model.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "test_guards.h"

namespace jqos {
namespace {

// The ladder event-queue backend spreads rungs into buckets on an amortized
// schedule, so even in steady state it allocates O(1) per drain; that churn
// is bounded and pinned by its own memory-regression test. Pin the heap
// backend here so this suite measures the PACKET path alone.
using jqos::testing::EvqBackendGuard;

struct Sink final : netsim::Node {
  explicit Sink(netsim::Network& net) : id_(net.allocate_id()) { net.attach(*this); }
  NodeId id() const override { return id_; }
  void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
  NodeId id_;
  std::vector<PacketPtr> received;
};

TEST(SteadyStateAlloc, SenderDuplicationPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  const EvqBackendGuard evq(netsim::EvqBackend::kHeap);
  // Declared first: the pool must outlive every packet the sinks retain.
  PacketPool pool(/*enabled=*/true);
  netsim::Simulator sim;
  netsim::Network net(sim);
  Sink receiver(net);
  Sink dc1(net);
  endpoint::Sender sender(net);
  net.add_link(sender.id(), receiver.id(), netsim::make_fixed_latency(msec(20)),
               netsim::make_no_loss());
  net.add_link(sender.id(), dc1.id(), netsim::make_fixed_latency(msec(5)),
               netsim::make_no_loss());
  sender.set_pool(&pool);

  endpoint::SenderPolicy policy;
  policy.service = ServiceType::kCode;
  policy.dc1 = dc1.id();
  policy.receiver = receiver.id();
  sender.register_flow(1, policy);

  constexpr int kBurst = 32;
  auto pump = [&] {
    receiver.received.clear();
    dc1.received.clear();
    for (int i = 0; i < kBurst; ++i) sender.send(1, 256);
    sim.run();
  };

  // Warmup: fill the packet/control-block freelists, the sinks' vectors,
  // and the event-queue backing store to their steady footprint.
  for (int round = 0; round < 16; ++round) pump();

  alloc_probe::reset();
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) pump();
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "sender duplication path hit the global allocator "
                        << allocs << " times over "
                        << (kRounds * kBurst * 2) << " packets";
  EXPECT_GT(pool.reused(), 0u);
}

TEST(SteadyStateAlloc, ReceiverInOrderPathIsAllocationFree) {
  if (!alloc_probe::active()) {
    GTEST_SKIP() << "alloc probe inactive (sanitizer build owns the heap)";
  }

  // Declared first: the pool must outlive the receiver's buffered packets.
  PacketPool pool(/*enabled=*/true);
  netsim::Simulator sim;
  netsim::Network net(sim);
  endpoint::ReceiverConfig rc;
  rc.record_delay_samples = false;  // Per-packet Samples grow unboundedly.
  endpoint::Receiver receiver(net, rc);
  receiver.expect_flow(1);
  receiver.set_pool(&pool);

  SeqNo seq = 0;
  auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      receiver.handle_packet(
          make_data_packet(1, seq++, /*src=*/1, /*dst=*/receiver.id(),
                           /*now=*/0, /*payload_bytes=*/256, &pool));
    }
  };

  // Warmup must exceed buffer_packets (1024): the reorder buffer recycles
  // its map nodes only once it reaches capacity and starts evicting.
  feed(2048);

  alloc_probe::reset();
  constexpr int kPackets = 1024;
  feed(kPackets);
  const std::uint64_t allocs = alloc_probe::allocations();

  EXPECT_EQ(allocs, 0u) << "receiver in-order path hit the global allocator "
                        << allocs << " times over " << kPackets << " packets";
  EXPECT_GT(pool.reused(), 0u);
}

}  // namespace
}  // namespace jqos
