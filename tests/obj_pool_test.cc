// Object-pool subsystem tests: ObjPool checkout/return RAII semantics,
// byte-bounded trim limits, high-water accounting, cross-thread return
// safety (ASan/TSan validate the Core lifetime rules), PacketPool recycling
// behind the packet.h factories and its single-owner lifetime check, the
// JQOS_OBJ_POOL env gate, and the load-bearing determinism property:
// WAN-scenario and churn fingerprints are bit-identical with pools on vs
// off, across event-queue backends. Pool state must never feed a simulation
// value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/obj_pool.h"
#include "common/packet.h"
#include "common/packet_pool.h"
#include "common/rng.h"
#include "exp/scenario.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "test_guards.h"
#include "workload/churn.h"

namespace jqos {
namespace {

using common::ObjPool;
using jqos::testing::EnvVarGuard;
using jqos::testing::EvqBackendGuard;

using BytePool = ObjPool<std::vector<std::uint8_t>>;

// --- ObjPool<T> semantics ------------------------------------------------

TEST(ObjPoolTest, RoundTripReusesStorage) {
  BytePool pool;
  std::uint8_t* buf = nullptr;
  {
    auto h = pool.acquire();
    ASSERT_TRUE(h);
    h->assign(100, 0xab);
    buf = h->data();
  }
  EXPECT_EQ(pool.pooled_count(), 1u);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.fresh(), 1u);
  EXPECT_EQ(pool.reused(), 0u);

  auto h2 = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(pool.fresh(), 1u);
  // The object comes back scrubbed (empty) but with its buffer retained.
  EXPECT_TRUE(h2->empty());
  EXPECT_GE(h2->capacity(), 100u);
  EXPECT_EQ(h2->data(), buf);
}

TEST(ObjPoolTest, HandleMoveAndExplicitRelease) {
  BytePool pool;
  auto a = pool.acquire();
  auto b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty.
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.outstanding(), 1u);

  BytePool::Handle c;
  c = std::move(b);
  EXPECT_TRUE(c);
  EXPECT_EQ(pool.outstanding(), 1u);

  c.release();
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.pooled_count(), 1u);
  c.release();  // Idempotent.
  EXPECT_EQ(pool.pooled_count(), 1u);
}

TEST(ObjPoolTest, HighWaterTracksMaxSimultaneousCheckouts) {
  BytePool pool;
  {
    std::vector<BytePool::Handle> held;
    for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
    EXPECT_EQ(pool.outstanding(), 3u);
    EXPECT_EQ(pool.high_water(), 3u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  // High water is a ratchet: it survives the returns.
  EXPECT_EQ(pool.high_water(), 3u);
  { auto h = pool.acquire(); }
  EXPECT_EQ(pool.high_water(), 3u);
}

TEST(ObjPoolTest, OversizedObjectsAreFreedNotPooled) {
  BytePool::Limits limits;
  limits.max_retained_bytes = 1u << 20;
  limits.max_object_bytes = 512;
  BytePool pool(limits);
  {
    auto h = pool.acquire();
    h->reserve(4096);  // Outgrows max_object_bytes: must not fatten the pool.
  }
  EXPECT_EQ(pool.pooled_count(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
  {
    auto h = pool.acquire();
    h->reserve(64);  // Small buffers still pool.
  }
  EXPECT_EQ(pool.pooled_count(), 1u);
}

TEST(ObjPoolTest, RetainedBytesBoundedByTotalBudgetNotCount) {
  BytePool::Limits limits;
  limits.max_retained_bytes = 2048;
  limits.max_object_bytes = 2048;
  BytePool pool(limits);
  {
    std::vector<BytePool::Handle> held;
    for (int i = 0; i < 4; ++i) {
      held.push_back(pool.acquire());
      held.back()->reserve(700);
    }
  }
  // Each return retains ~700 bytes of capacity; the byte budget admits two
  // of the four, and the rest are freed (a count bound would keep all 4).
  EXPECT_LT(pool.pooled_count(), 4u);
  EXPECT_LE(pool.pooled_bytes(), 2048u);
  EXPECT_GT(pool.pooled_bytes(), 0u);
}

TEST(ObjPoolTest, TrimFreesEverythingPooled) {
  BytePool pool;
  for (int i = 0; i < 5; ++i) {
    auto h = pool.acquire();
    h->reserve(256);
    // Cycle one at a time so each return lands on the freelist.
  }
  EXPECT_GT(pool.pooled_bytes(), 0u);
  pool.trim();
  EXPECT_EQ(pool.pooled_count(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
  // The pool keeps working after a trim.
  auto h = pool.acquire();
  EXPECT_TRUE(h);
}

TEST(ObjPoolTest, CrossThreadReleaseIsSafe) {
  // A pooled object may be released on another thread; the return must
  // take the OWNER's freelist lock from the releasing thread. ASan/TSan
  // validate.
  BytePool pool;
  std::vector<BytePool::Handle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(pool.acquire());
    handles.back()->assign(64, static_cast<std::uint8_t>(i));
  }
  std::vector<std::thread> threads;
  for (auto& h : handles) {
    threads.emplace_back([moved = std::move(h)]() mutable { moved.release(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.high_water(), 8u);
}

TEST(ObjPoolTest, HandleOutlivesPoolFacade) {
  // The freelist Core is refcounted: a handle released after the pool facade
  // is gone frees cleanly instead of dangling (the churn engine erases
  // sessions whose outcome buffers may still be in flight).
  BytePool::Handle survivor;
  {
    BytePool pool;
    survivor = pool.acquire();
    survivor->assign(32, 0xcd);
  }
  EXPECT_TRUE(survivor);
  survivor.release();  // Must not crash; ASan validates the free.
}

// --- PacketPool ----------------------------------------------------------

TEST(PacketPoolTest, EnvGateReadAtConstruction) {
  {
    const EnvVarGuard off("JQOS_OBJ_POOL", std::string("0"));
    EXPECT_FALSE(PacketPool::env_enabled());
    PacketPool pool;
    EXPECT_FALSE(pool.enabled());
    // Disabled pool is a passthrough: acquire still yields usable packets.
    auto p = pool.acquire();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->type, PacketType::kData);
  }
  {
    const EnvVarGuard on("JQOS_OBJ_POOL", std::string("1"));
    EXPECT_TRUE(PacketPool(PacketPool::env_enabled()).enabled());
  }
  {
    const EnvVarGuard unset("JQOS_OBJ_POOL", std::nullopt);
    EXPECT_TRUE(PacketPool::env_enabled());  // Pools default ON.
  }
}

TEST(PacketPoolTest, AcquireRecyclesStorageAndControlBlock) {
  PacketPool pool(/*enabled=*/true);
  {
    auto p = pool.acquire();
    p->payload.assign(512, 0xee);
    pool.engage_meta(*p).covered.push_back(PacketKey{7, 9});
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.fresh(), 1u);

  auto p2 = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  // Scrubbed: default header, empty payload, meta disengaged -- but with
  // capacity retained so refilling allocates nothing.
  EXPECT_EQ(p2->type, PacketType::kData);
  EXPECT_EQ(p2->flow, 0u);
  EXPECT_FALSE(p2->meta.has_value());
  EXPECT_TRUE(p2->payload.empty());
  EXPECT_GE(p2->payload.capacity(), 512u);
  // engage_meta hands back salvaged covered-key capacity.
  CodedMeta& m = pool.engage_meta(*p2);
  EXPECT_TRUE(m.covered.empty());
  EXPECT_GE(m.covered.capacity(), 1u);
}

TEST(PacketPoolTest, AcquireCopyIsDeep) {
  PacketPool pool(/*enabled=*/true);
  Packet src;
  src.type = PacketType::kCrossCoded;
  src.service = ServiceType::kCode;
  src.flow = 42;
  src.seq = 1000;
  src.src = 3;
  src.dst = 4;
  src.final_dst = 5;
  src.sent_at = 123456;
  src.ecn_capable = true;
  src.payload = {1, 2, 3, 4, 5};
  src.meta.emplace();
  src.meta->batch_id = 77;
  src.meta->k = 4;
  src.meta->r = 2;
  src.meta->covered = {PacketKey{42, 998}, PacketKey{42, 999}};

  auto copy = pool.acquire_copy(src);
  EXPECT_EQ(copy->type, src.type);
  EXPECT_EQ(copy->service, src.service);
  EXPECT_EQ(copy->flow, src.flow);
  EXPECT_EQ(copy->seq, src.seq);
  EXPECT_EQ(copy->src, src.src);
  EXPECT_EQ(copy->dst, src.dst);
  EXPECT_EQ(copy->final_dst, src.final_dst);
  EXPECT_EQ(copy->sent_at, src.sent_at);
  EXPECT_EQ(copy->ecn_capable, src.ecn_capable);
  EXPECT_EQ(copy->payload, src.payload);
  ASSERT_TRUE(copy->meta.has_value());
  EXPECT_EQ(*copy->meta, *src.meta);
  // Deep: mutating the copy leaves the source alone.
  copy->payload[0] = 99;
  EXPECT_EQ(src.payload[0], 1);
}

TEST(PacketPoolDeathTest, DestroyingAPoolWithOutstandingPacketsAborts) {
  // The deleter and control-block allocator point at the pool itself, so a
  // packet outliving its pool would recycle into freed memory. The pool
  // refuses loudly instead: a shard declares its pool first so it dies last.
  EXPECT_DEATH(
      {
        PacketPtr survivor;
        {
          PacketPool pool(/*enabled=*/true);
          survivor = pool.acquire();
        }
      },
      "PacketPool destroyed with 1 packets");
}

TEST(PacketPoolTest, DisabledPoolPacketsMayOutliveIt) {
  // The JQOS_OBJ_POOL=0 passthrough hands out plain make_shared packets,
  // which owe the pool nothing.
  PacketPtr survivor;
  {
    PacketPool pool(/*enabled=*/false);
    survivor = pool.acquire();
  }
  EXPECT_EQ(survivor->type, PacketType::kData);
}

TEST(PacketPoolTest, FactoriesProduceIdenticalPacketsPooledOrNot) {
  PacketPool pool(/*enabled=*/true);
  const PacketPtr pooled = make_data_packet(9, 55, 1, 2, 777, 300, &pool);
  const PacketPtr plain = make_data_packet(9, 55, 1, 2, 777, 300, nullptr);
  EXPECT_EQ(pooled->serialize(), plain->serialize());
  EXPECT_EQ(pooled->wire_size(), plain->wire_size());
}

// --- Determinism: pools must never perturb simulation values -------------

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

void fnv_d(std::uint64_t& h, double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  fnv(h, u);
}

std::uint64_t wan_fingerprint(exp::WanScenario& sc) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < sc.path_count(); ++i) {
    const exp::PathRuntime& rt = sc.path(i);
    fnv(h, rt.outcome.size());
    for (exp::Outcome o : rt.outcome) fnv(h, static_cast<std::uint64_t>(o));
    for (double v : rt.recovery_ms.values()) fnv_d(h, v);
    fnv(h, rt.delivered_direct);
    fnv(h, rt.recovered);
    fnv(h, rt.lost);
  }
  const auto enc = sc.encoder_totals();
  for (std::uint64_t v : {enc.data_packets, enc.cross_batches, enc.in_batches,
                          enc.coded_sent, enc.timer_flushes}) {
    fnv(h, v);
  }
  const auto rec = sc.recovery_totals();
  for (std::uint64_t v : {rec.nacks, rec.nack_keys, rec.in_stream_served,
                          rec.coop_ops, rec.coop_success, rec.recovered_sent,
                          rec.batches_stored}) {
    fnv(h, v);
  }
  fnv(h, sc.sim().events_processed());
  return h;
}

// One lossy coded-path scenario; the pool env guard wraps CONSTRUCTION
// because every PacketPool reads JQOS_OBJ_POOL when it is built.
std::uint64_t wan_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", std::string(pooled ? "1" : "0"));
  Rng geo_rng(0x706f6f6cULL);
  const auto paths = geo::planetlab_paths(3, geo_rng);
  exp::WanScenarioParams p;
  p.seed = 0xdecafbadULL;
  p.direct.bernoulli_loss = 0.02;  // Enough loss to exercise NACK/recovery.
  p.cbr.packets_per_second = 60.0;
  exp::WanScenario sc(paths, p);
  sc.run(sec(2));
  return wan_fingerprint(sc);
}

TEST(ObjPoolDeterminism, WanFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(wan_fp(/*pooled=*/true, backend), wan_fp(/*pooled=*/false, backend));
  }
}

std::uint64_t churn_fp(bool pooled, netsim::EvqBackend backend) {
  const EvqBackendGuard evq(backend);
  const EnvVarGuard pool_env("JQOS_OBJ_POOL", std::string(pooled ? "1" : "0"));
  workload::ChurnConfig cfg;
  cfg.num_pairs = 3;
  cfg.duration = sec(2);
  cfg.arrivals.sessions_per_sec = 20.0;
  cfg.packets_per_second = 80.0;
  cfg.max_session_packets = 50;
  cfg.scenario.seed = 0xc0ffeeULL;
  cfg.num_shards = 1;
  cfg.num_threads = 1;
  return workload::run_churn(cfg).fingerprint();
}

TEST(ObjPoolDeterminism, ChurnFingerprintIdenticalPoolsOnOff) {
  for (const auto backend : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    SCOPED_TRACE(std::string("backend=") + netsim::evq_backend_name(backend));
    EXPECT_EQ(churn_fp(/*pooled=*/true, backend), churn_fp(/*pooled=*/false, backend));
  }
}

}  // namespace
}  // namespace jqos
