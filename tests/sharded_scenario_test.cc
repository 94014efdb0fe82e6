// The sharded runner's merge-determinism contract (sharded_runner.h):
//
//  * Thread count is pure mechanism: JQOS_SIM_THREADS / num_threads may only
//    change wall-clock time, never a single byte of the merged results.
//  * Shard count is also invariant: packing the (DC1, DC2) interaction
//    groups into 1 shard, one shard per group, or anything between yields
//    identical per-path outcomes and identical summed service totals,
//    because every random stream is derived from stable identities and no
//    causal interaction crosses a group boundary.
//  * The WanScenario facade (the whole scenario in ONE shard) is the N=1
//    reference the merged N-shard result must match bit-for-bit.
//  * All of the above holds under either event-queue backend.
//
// These properties are what make "run the 45-path sweep on every core" a
// safe default for the figure drivers rather than a fidelity trade-off.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "exp/sharded_runner.h"
#include "test_guards.h"

namespace jqos::exp {
namespace {

WanScenarioParams fast_params(std::uint64_t seed) {
  WanScenarioParams p;
  p.service = ServiceType::kCode;
  p.seed = seed;
  p.coding.k = 5;
  p.coding.cross_coded = 2;
  p.coding.in_block = 5;
  p.coding.in_coded = 1;
  p.coding.queue_timeout = msec(300);
  p.cbr.on_duration = sec(20);
  p.cbr.mean_off = sec(10);
  p.cbr.packets_per_second = 25.0;
  p.cbr.payload_bytes = 256;
  p.direct.bernoulli_loss = 0.004;
  p.direct.gilbert.p_good_to_bad = 0.001;
  p.direct.outage_path_fraction = 0.5;
  p.direct.outage.mean_interval = sec(45);
  p.direct.outage.min_len = sec(1);
  p.direct.outage.max_len = sec(2);
  return p;
}

std::vector<geo::PathSample> test_paths(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  return geo::planetlab_paths(n, rng);
}

// Everything observable from a run: per-path delivery traces and counters,
// plus the merged encoder/recovery totals. Byte-for-byte comparable.
struct Fingerprint {
  std::vector<std::vector<Outcome>> outcomes;
  std::vector<std::vector<double>> recovery_ms;
  std::vector<std::uint64_t> delivered, recovered, lost;
  std::uint64_t enc_data = 0, enc_cross = 0, enc_in = 0, enc_coded = 0, enc_timer = 0;
  std::uint64_t rec_nacks = 0, rec_keys = 0, rec_in_stream = 0, rec_coop_ops = 0;
  std::uint64_t rec_coop_success = 0, rec_sent = 0, rec_stored = 0, rec_expired = 0;

  // NOTE: simulator event counts are deliberately absent. Splitting groups
  // that share a DC site across shards duplicates that site's housekeeping
  // timers (one per shard), so raw event totals are an execution detail,
  // not a result. They ARE invariant for a fixed partition; the thread-
  // count test checks that separately.
  bool operator==(const Fingerprint&) const = default;
};

template <typename Runner>
Fingerprint fingerprint_of(const Runner& runner, std::size_t n) {
  Fingerprint fp;
  for (std::size_t i = 0; i < n; ++i) {
    const PathRuntime& rt = runner.path(i);
    fp.outcomes.push_back(rt.outcome);
    fp.recovery_ms.push_back(rt.recovery_ms.values());
    fp.delivered.push_back(rt.delivered_direct);
    fp.recovered.push_back(rt.recovered);
    fp.lost.push_back(rt.lost);
  }
  const auto enc = runner.encoder_totals();
  fp.enc_data = enc.data_packets;
  fp.enc_cross = enc.cross_batches;
  fp.enc_in = enc.in_batches;
  fp.enc_coded = enc.coded_sent;
  fp.enc_timer = enc.timer_flushes;
  const auto rec = runner.recovery_totals();
  fp.rec_nacks = rec.nacks;
  fp.rec_keys = rec.nack_keys;
  fp.rec_in_stream = rec.in_stream_served;
  fp.rec_coop_ops = rec.coop_ops;
  fp.rec_coop_success = rec.coop_success;
  fp.rec_sent = rec.recovered_sent;
  fp.rec_stored = rec.batches_stored;
  fp.rec_expired = rec.batches_expired;
  return fp;
}

struct RunResult {
  Fingerprint fp;
  std::uint64_t events = 0;
};

RunResult run_sharded(std::size_t paths, std::uint64_t seed, std::size_t num_shards,
                      unsigned num_threads) {
  ShardedRunParams rp;
  rp.num_shards = num_shards;
  rp.num_threads = num_threads;
  ShardedRunner runner(test_paths(paths), fast_params(seed), rp);
  runner.run(minutes(1));
  return {fingerprint_of(runner, runner.path_count()), runner.total_events()};
}

void expect_same(const Fingerprint& a, const Fingerprint& b, const std::string& what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << what << ": outcome trace of path " << i;
    EXPECT_EQ(a.recovery_ms[i], b.recovery_ms[i]) << what << ": recovery_ms of path " << i;
  }
  EXPECT_TRUE(a == b) << what << ": fingerprints diverge";
}

TEST(ShardedScenario, ThreadCountNeverChangesMergedResults) {
  // The acceptance criterion: JQOS_SIM_THREADS=1 vs >1 bit-identical. The
  // explicit num_threads knob is the same code path the env override feeds.
  const RunResult t1 = run_sharded(10, 77, 0, 1);
  ASSERT_GT(t1.fp.enc_data, 1000u) << "scenario too small to be a meaningful guard";
  for (unsigned threads : {2u, 4u}) {
    const RunResult tn = run_sharded(10, 77, 0, threads);
    expect_same(t1.fp, tn.fp, "threads=" + std::to_string(threads));
    // For a FIXED partition the raw event totals are invariant too.
    EXPECT_EQ(t1.events, tn.events) << "threads=" << threads;
  }
}

TEST(ShardedScenario, ShardCountNeverChangesMergedResults) {
  // Stronger: the decomposition itself is invariant. 1 shard (monolithic),
  // one shard per group (0), and partial packings all merge identically.
  const RunResult mono = run_sharded(10, 91, 1, 2);
  for (std::size_t shards : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    const RunResult r = run_sharded(10, 91, shards, 2);
    expect_same(mono.fp, r.fp, "num_shards=" + std::to_string(shards));
  }
}

TEST(ShardedScenario, MatchesWanScenarioFacade) {
  // The N=1 facade and the fully sharded multi-threaded run agree exactly.
  const std::uint64_t seed = 2026;
  WanScenario mono(test_paths(8, 5), fast_params(seed));
  mono.run(minutes(1));
  Fingerprint mono_fp = fingerprint_of(mono, mono.path_count());

  ShardedRunParams rp;
  rp.num_threads = 4;
  ShardedRunner sharded(test_paths(8, 5), fast_params(seed), rp);
  sharded.run(minutes(1));
  ASSERT_GT(sharded.shard_count(), 1u) << "paths collapsed into one group; test is vacuous";
  const Fingerprint sharded_fp = fingerprint_of(sharded, sharded.path_count());
  expect_same(mono_fp, sharded_fp, "facade-vs-sharded");
}

TEST(ShardedScenario, InvariantAcrossEventQueueBackends) {
  for (netsim::EvqBackend backend :
       {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    const jqos::testing::EvqBackendGuard guard(backend);
    const RunResult a = run_sharded(8, 13, 0, 1);
    const RunResult b = run_sharded(8, 13, 0, 4);
    expect_same(a.fp, b.fp, std::string("backend=") + netsim::evq_backend_name(backend));
  }
  // And the two backends agree with each other under sharding, as the
  // monolithic determinism suite already guarantees for one Simulator.
  RunResult heap, ladder;
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kHeap);
    heap = run_sharded(8, 13, 0, 4);
  }
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kLadder);
    ladder = run_sharded(8, 13, 0, 4);
  }
  expect_same(heap.fp, ladder.fp, "heap-vs-ladder sharded");
}

TEST(ShardedScenario, PartitionRespectsInteractionGroups) {
  // Paths sharing a (DC1, DC2) pair must land in one shard: force all paths
  // onto one DC pair and check the runner collapses to a single shard.
  auto paths = test_paths(6, 21);
  for (auto& p : paths) {
    p.dc1 = paths[0].dc1;
    p.dc2 = paths[0].dc2;
  }
  ShardedRunner runner(std::move(paths), fast_params(1), {});
  EXPECT_EQ(runner.shard_count(), 1u);
}

}  // namespace
}  // namespace jqos::exp
