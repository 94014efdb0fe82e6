// Tests for the caching service: the TTL/LRU store, pull and NACK-based
// recovery, the hybrid-multicast and mobility (DTN rendezvous) use cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/caching/caching_service.h"

namespace jqos::services {
namespace {

PacketPtr cached_data(FlowId flow, SeqNo seq, std::size_t bytes = 64) {
  auto p = std::make_shared<Packet>();
  p->type = PacketType::kData;
  p->service = ServiceType::kCache;
  p->flow = flow;
  p->seq = seq;
  p->payload.assign(bytes, static_cast<std::uint8_t>(seq));
  return p;
}

// ------------------------------ CacheStore --------------------------------

TEST(CacheStore, PutGetRoundTrip) {
  CacheStore store;
  store.put(cached_data(1, 5), 0, sec(10));
  auto got = store.get(PacketKey{1, 5}, sec(1));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->seq, 5u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(CacheStore, ExpiryByTtl) {
  CacheStore store;
  store.put(cached_data(1, 1), 0, sec(10));
  EXPECT_NE(store.get(PacketKey{1, 1}, sec(9)), nullptr);
  EXPECT_EQ(store.get(PacketKey{1, 1}, sec(10)), nullptr);
  EXPECT_EQ(store.stats().expirations, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheStore, SweepReclaimsExpired) {
  CacheStore store;
  for (SeqNo s = 0; s < 10; ++s) store.put(cached_data(1, s), 0, sec(1));
  for (SeqNo s = 10; s < 15; ++s) store.put(cached_data(1, s), 0, sec(100));
  EXPECT_EQ(store.sweep(sec(2)), 10u);
  EXPECT_EQ(store.size(), 5u);
}

TEST(CacheStore, PutsSweepSoSizeStaysBoundedUnderSteadyInsertion) {
  // One put per millisecond with a 100 ms TTL and nobody ever pulling: the
  // store must not keep every packet it was sent. Each put reclaims what
  // has expired, so it holds one TTL's worth of puts, well under two.
  CacheStore store;
  constexpr SimDuration kTtl = msec(100);
  constexpr std::size_t kPutsPerTtl = 100;
  std::size_t peak = 0;
  for (SeqNo s = 0; s < 20 * kPutsPerTtl; ++s) {
    const SimTime now = msec(static_cast<std::int64_t>(s));
    store.put(cached_data(1, s), now, kTtl);
    peak = std::max(peak, store.size());
  }
  EXPECT_LE(peak, kPutsPerTtl + 1);
  EXPECT_GE(store.size(), kPutsPerTtl);  // Live entries are kept.
  EXPECT_GT(store.stats().expirations, 0u);
  // The newest entry is still served; an entry older than the TTL is not.
  EXPECT_NE(store.get(PacketKey{1, 20 * kPutsPerTtl - 1}, msec(2000)), nullptr);
  EXPECT_EQ(store.get(PacketKey{1, 10}, msec(2000)), nullptr);
}

TEST(CacheStore, RefreshExtendsTtlAndUpdatesBytes) {
  CacheStore store;
  store.put(cached_data(1, 1, 64), 0, sec(5));
  store.put(cached_data(1, 1, 128), sec(4), sec(5));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.get(PacketKey{1, 1}, sec(8)), nullptr);  // Refreshed TTL.
  auto got = store.get(PacketKey{1, 1}, sec(8));
  EXPECT_EQ(got->payload.size(), 128u);
}

TEST(CacheStore, LruEvictionUnderCapacity) {
  // Capacity for roughly three 64-byte-payload packets.
  CacheStore store(3 * (64 + packet_header_bytes() + 4));
  store.put(cached_data(1, 0), 0, sec(100));
  store.put(cached_data(1, 1), 0, sec(100));
  store.put(cached_data(1, 2), 0, sec(100));
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_NE(store.get(PacketKey{1, 0}, 1), nullptr);
  store.put(cached_data(1, 3), 0, sec(100));
  EXPECT_GT(store.stats().capacity_evictions, 0u);
  EXPECT_NE(store.get(PacketKey{1, 0}, 1), nullptr);
  EXPECT_EQ(store.get(PacketKey{1, 1}, 1), nullptr);  // Evicted.
}

TEST(CacheStore, MissCounted) {
  CacheStore store;
  EXPECT_EQ(store.get(PacketKey{9, 9}, 0), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
}

// ---------------------------- CachingService ------------------------------

struct Fixture {
  netsim::Simulator sim;
  netsim::Network net{sim};
  overlay::DataCenter dc{net, 0, "dc2"};
  std::shared_ptr<CachingService> cache = std::make_shared<CachingService>(sec(30));

  struct Sink final : netsim::Node {
    explicit Sink(netsim::Network& n) : id_(n.allocate_id()) { n.attach(*this); }
    NodeId id() const override { return id_; }
    void handle_packet(const PacketPtr& pkt) override { received.push_back(pkt); }
    NodeId id_;
    std::vector<PacketPtr> received;
  };

  Fixture() { dc.install(cache); }

  std::unique_ptr<Sink> add_receiver() {
    auto s = std::make_unique<Sink>(net);
    net.add_link(dc.id(), s->id(), netsim::make_fixed_latency(msec(5)),
                 netsim::make_no_loss());
    return s;
  }
};

TEST(CachingService, CachesTaggedDataOnly) {
  Fixture f;
  auto tagged = cached_data(1, 0);
  EXPECT_TRUE(f.cache->handle(f.dc, tagged));
  auto untagged = std::make_shared<Packet>();
  untagged->type = PacketType::kData;
  untagged->service = ServiceType::kCode;
  EXPECT_FALSE(f.cache->handle(f.dc, untagged));
  EXPECT_EQ(f.cache->stats().cached, 1u);
}

TEST(CachingService, PullReturnsRecoveredCopy) {
  Fixture f;
  auto receiver = f.add_receiver();
  f.cache->handle(f.dc, cached_data(1, 7));

  auto pull = std::make_shared<Packet>();
  pull->type = PacketType::kPull;
  pull->service = ServiceType::kCache;
  pull->flow = 1;
  pull->seq = 7;
  pull->src = receiver->id();
  pull->dst = f.dc.id();
  f.dc.handle_packet(pull);
  f.sim.run();

  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0]->type, PacketType::kRecovered);
  EXPECT_EQ(receiver->received[0]->seq, 7u);
  EXPECT_EQ(f.cache->stats().pull_hits, 1u);
}

TEST(CachingService, PullMissFailsSilently) {
  Fixture f;
  auto receiver = f.add_receiver();
  auto pull = std::make_shared<Packet>();
  pull->type = PacketType::kPull;
  pull->service = ServiceType::kCache;
  pull->flow = 1;
  pull->seq = 99;
  pull->src = receiver->id();
  pull->dst = f.dc.id();
  f.dc.handle_packet(pull);
  f.sim.run();
  EXPECT_TRUE(receiver->received.empty());
  EXPECT_EQ(f.cache->stats().pull_misses, 1u);
}

TEST(CachingService, NackServesExplicitMissingList) {
  Fixture f;
  auto receiver = f.add_receiver();
  for (SeqNo s = 0; s < 5; ++s) f.cache->handle(f.dc, cached_data(2, s));

  NackInfo info;
  info.missing = {1, 3};
  auto nack = std::make_shared<Packet>();
  nack->type = PacketType::kNack;
  nack->service = ServiceType::kCache;
  nack->flow = 2;
  nack->src = receiver->id();
  nack->dst = f.dc.id();
  nack->payload = info.serialize();
  f.dc.handle_packet(nack);
  f.sim.run();

  ASSERT_EQ(receiver->received.size(), 2u);
  EXPECT_EQ(receiver->received[0]->seq, 1u);
  EXPECT_EQ(receiver->received[1]->seq, 3u);
}

TEST(CachingService, TailNackServesContiguousRun) {
  // The mobility use case (Fig 3(e)): the receiver comes online and pulls
  // everything cached from its last-known sequence number onward.
  Fixture f;
  auto receiver = f.add_receiver();
  for (SeqNo s = 10; s < 20; ++s) f.cache->handle(f.dc, cached_data(3, s));

  NackInfo info;
  info.tail = true;
  info.expected = 10;
  auto nack = std::make_shared<Packet>();
  nack->type = PacketType::kNack;
  nack->service = ServiceType::kCache;
  nack->flow = 3;
  nack->src = receiver->id();
  nack->dst = f.dc.id();
  nack->payload = info.serialize();
  f.dc.handle_packet(nack);
  f.sim.run();

  ASSERT_EQ(receiver->received.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(receiver->received[i]->seq, 10 + i);
  }
}

TEST(CachingService, HybridMulticastServesManyReceivers) {
  // One cached copy, several receivers pulling the same packet (Fig 3(d)).
  Fixture f;
  auto r1 = f.add_receiver();
  auto r2 = f.add_receiver();
  f.cache->handle(f.dc, cached_data(4, 0));
  for (auto* r : {r1.get(), r2.get()}) {
    auto pull = std::make_shared<Packet>();
    pull->type = PacketType::kPull;
    pull->service = ServiceType::kCache;
    pull->flow = 4;
    pull->seq = 0;
    pull->src = r->id();
    pull->dst = f.dc.id();
    f.dc.handle_packet(pull);
  }
  f.sim.run();
  EXPECT_EQ(r1->received.size(), 1u);
  EXPECT_EQ(r2->received.size(), 1u);
}

TEST(CachingService, IgnoresForeignNacks) {
  Fixture f;
  auto nack = std::make_shared<Packet>();
  nack->type = PacketType::kNack;
  nack->service = ServiceType::kCode;  // Belongs to the coding service.
  EXPECT_FALSE(f.cache->handle(f.dc, nack));
}

}  // namespace
}  // namespace jqos::services
