// Unit tests for the common substrate: wire format, packet serialization,
// NACK payloads, statistics, the deterministic RNG, and the thread-count
// knob.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "common/packet.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/wire.h"
#include "test_guards.h"

namespace jqos {
namespace {

// ------------------------------- wire -------------------------------------

TEST(Wire, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[3], 0x04);
}

TEST(Wire, VarBytesRoundTrip) {
  ByteWriter w;
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  w.var_bytes(payload);
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.var_bytes(), payload);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(Wire, UnderflowSetsErrorInsteadOfThrowing) {
  std::vector<std::uint8_t> short_buf = {1, 2};
  ByteReader r(short_buf);
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // Still safe to call.
}

TEST(Wire, CorruptLengthPrefixRejected) {
  ByteWriter w;
  w.u32(0xffffffff);  // Length prefix far beyond the buffer.
  ByteReader r(w.data());
  EXPECT_TRUE(r.var_bytes().empty());
  EXPECT_FALSE(r.ok());
}

// ------------------------------ packet ------------------------------------

TEST(Packet, SerializeParseRoundTrip) {
  Packet p;
  p.type = PacketType::kCrossCoded;
  p.service = ServiceType::kCode;
  p.flow = 7;
  p.seq = 1234;
  p.src = 2;
  p.dst = 3;
  p.final_dst = 9;
  p.sent_at = 987654321;
  CodedMeta m;
  m.batch_id = 55;
  m.index = 6;
  m.k = 6;
  m.r = 2;
  m.covered = {{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}, {6, 60}};
  p.meta = m;
  p.payload = {9, 8, 7};

  auto bytes = p.serialize();
  EXPECT_EQ(bytes.size(), p.wire_size());
  auto parsed = Packet::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, p.type);
  EXPECT_EQ(parsed->service, p.service);
  EXPECT_EQ(parsed->flow, p.flow);
  EXPECT_EQ(parsed->seq, p.seq);
  EXPECT_EQ(parsed->src, p.src);
  EXPECT_EQ(parsed->dst, p.dst);
  EXPECT_EQ(parsed->final_dst, p.final_dst);
  EXPECT_EQ(parsed->sent_at, p.sent_at);
  ASSERT_TRUE(parsed->meta.has_value());
  EXPECT_EQ(*parsed->meta, m);
  EXPECT_EQ(parsed->payload, p.payload);
}

TEST(Packet, ParseRejectsBadVersionAndType) {
  Packet p;
  auto bytes = p.serialize();
  auto bad_version = bytes;
  bad_version[0] = 99;
  EXPECT_FALSE(Packet::parse(bad_version).has_value());
  auto bad_type = bytes;
  bad_type[1] = 200;
  EXPECT_FALSE(Packet::parse(bad_type).has_value());
}

TEST(Packet, ParseRejectsTruncated) {
  Packet p;
  p.payload = {1, 2, 3, 4};
  auto bytes = p.serialize();
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(Packet::parse(bytes).has_value());
}

TEST(Packet, WireSizeChargesMetaAndPayload) {
  Packet bare;
  const std::size_t base = bare.wire_size();
  EXPECT_EQ(base, packet_header_bytes());
  Packet loaded;
  loaded.payload.assign(100, 0);
  EXPECT_EQ(loaded.wire_size(), base + 100);
  CodedMeta m;
  m.covered = {{1, 1}, {2, 2}};
  loaded.meta = m;
  EXPECT_GT(loaded.wire_size(), base + 100);
}

TEST(Packet, NackInfoRoundTrip) {
  NackInfo n;
  n.tail = true;
  n.expected = 17;
  n.missing = {17, 19, 23};
  auto parsed = NackInfo::parse(n.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, n);
}

TEST(Packet, NackInfoRejectsBogusCount) {
  ByteWriter w;
  w.u8(0);
  w.u32(0);
  w.u32(1000000);  // Claims a million seqs with no bytes behind it.
  EXPECT_FALSE(NackInfo::parse(w.data()).has_value());
}

TEST(Packet, FactoriesPopulateFields) {
  auto p = make_data_packet(3, 4, 1, 2, 1000, 64);
  EXPECT_EQ(p->type, PacketType::kData);
  EXPECT_EQ(p->flow, 3u);
  EXPECT_EQ(p->seq, 4u);
  EXPECT_EQ(p->payload.size(), 64u);
  EXPECT_EQ(p->key(), (PacketKey{3, 4}));
}

// ------------------------------- stats ------------------------------------

TEST(Stats, OnlineStatsMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, OnlineStatsMergeMatchesSequential) {
  OnlineStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
}

TEST(Stats, CdfAt) {
  Samples s;
  for (int i = 0; i < 10; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.cdf_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(4.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(s.ccdf_at(4.0), 0.5);
}

TEST(Stats, CdfPointsMonotone) {
  Samples s;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) s.add(rng.lognormal(0.0, 1.0));
  auto pts = s.cdf_points(25);
  ASSERT_EQ(pts.size(), 26u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].value, pts[i - 1].value);
    EXPECT_GE(pts[i].fraction, pts[i - 1].fraction);
  }
}

TEST(Stats, HistogramCountsOutOfRangeSeparately) {
  // Out-of-range samples must not be clamped into the edge bins: that
  // silently corrupted tail bins (the Figure 9(a) PSNR histograms). They
  // are tracked as underflow/overflow and still count toward total().
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);  // Underflow, NOT bin 0.
  h.add(0.5);
  h.add(9.5);
  h.add(15.0);  // Overflow, NOT bin 9.
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.in_range(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  // The CDF includes underflow below every bin and tops out short of 1.0
  // when samples overflowed the range.
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(9), 0.75);
}

TEST(Stats, HistogramUpperEdgeIsExclusive) {
  Histogram h(0.0, 10.0, 10);
  h.add(10.0);  // hi itself is out of range ([lo, hi)).
  EXPECT_EQ(h.overflow(), 1u);
  h.add(0.0);  // lo itself is in range.
  EXPECT_EQ(h.bin_count(0), 1u);
}

TEST(Stats, PercentileEmptyIsNaN) {
  // An empty set must be distinguishable from a real zero sample.
  Samples s;
  EXPECT_TRUE(std::isnan(s.percentile(50)));
  EXPECT_TRUE(std::isnan(s.median()));
}

TEST(Stats, PercentileSingleSample) {
  Samples s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(37.0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.5);
}

TEST(Stats, PercentileTwoSamplesInterpolates) {
  Samples s;
  s.add(20.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 12.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

TEST(Stats, MeanCompensatedSummation) {
  // A sum whose large terms cancel: naive accumulation loses every small
  // sample against the 1e16 running total (ulp there is 2.0), so the naive
  // mean comes out near 4/3 instead of pi/3. Neumaier compensation must
  // recover the exact value. 10M samples keeps this in soak-run territory.
  Samples s;
  constexpr std::size_t kTriples = 3'333'333;
  s.reserve(3 * kTriples);
  const double pi = 3.14159265358979323846;
  for (std::size_t i = 0; i < kTriples; ++i) {
    s.add(1e16);
    s.add(pi);
    s.add(-1e16);
  }
  EXPECT_NEAR(s.mean(), pi / 3.0, 1e-9);

  // And on a plain well-conditioned stream the mean agrees with the
  // streaming (Welford) path to near machine precision.
  Samples plain;
  OnlineStats online;
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.lognormal(2.0, 1.0);
    plain.add(x);
    online.add(x);
  }
  EXPECT_NEAR(plain.mean(), online.mean(), std::abs(online.mean()) * 1e-12);
}

TEST(Stats, HistogramRejectsDegenerate) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------- quantile sketch -------------------------------

TEST(QuantileSketch, EmptyIsNaN) {
  QuantileSketch sk;
  EXPECT_TRUE(sk.empty());
  EXPECT_TRUE(std::isnan(sk.quantile(0.5)));
  EXPECT_TRUE(std::isnan(sk.percentile(99.0)));
  EXPECT_TRUE(std::isnan(sk.min()));
  EXPECT_TRUE(std::isnan(sk.max()));
}

TEST(QuantileSketch, ExactOnSmallSetsMatchesSamples) {
  // While everything fits in level 0 the sketch must reproduce
  // Samples::percentile bit for bit -- including the count 0/1/2 edge
  // cases those are now goldens for.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{100},
                        std::size_t{1000}}) {
    Samples s;
    QuantileSketch sk(1024);
    Rng rng(1000 + n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.lognormal(1.0, 2.0);
      s.add(x);
      sk.add(x);
    }
    for (double p : {0.0, 25.0, 37.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_DOUBLE_EQ(sk.percentile(p), s.percentile(p))
          << "n=" << n << " p=" << p;
    }
    EXPECT_DOUBLE_EQ(sk.min(), s.min());
    EXPECT_DOUBLE_EQ(sk.max(), s.max());
  }
}

TEST(QuantileSketch, RankErrorWithinOnePercent) {
  // The soak-path accuracy contract (docs/BENCHMARKING.md): estimated
  // quantiles land within 1% rank error of the exact order statistics at
  // p50/p99/p999, on a heavy-tailed stream far larger than k.
  constexpr std::size_t kN = 500000;
  Samples exact;
  QuantileSketch sk(1024);
  Rng rng(77);
  exact.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = rng.lognormal(0.0, 2.0);
    exact.add(x);
    sk.add(x);
  }
  EXPECT_LT(sk.retained(), std::size_t{32} * 1024);  // O(k log(n/k)) memory.
  for (double q : {0.50, 0.99, 0.999}) {
    const double est = sk.quantile(q);
    const double rank = exact.cdf_at(est);
    EXPECT_NEAR(rank, q, 0.01) << "q=" << q << " est=" << est;
  }
}

TEST(QuantileSketch, MergeIsDeterministicAndAccurate) {
  // The OnlineStats::merge-style contract: merging per-shard sketches in a
  // fixed order is reproducible bit for bit, and the merged estimate keeps
  // the accuracy bound. Shards get different sizes on purpose.
  constexpr std::size_t kShards = 5;
  auto build = [](std::size_t shard) {
    QuantileSketch sk(512);
    Rng rng(Rng::derive(42, shard));
    const std::size_t n = 20000 + shard * 13777;
    for (std::size_t i = 0; i < n; ++i) sk.add(rng.exponential(3.0));
    return sk;
  };
  QuantileSketch merged_a, merged_b;
  Samples exact;
  for (std::size_t s = 0; s < kShards; ++s) {
    QuantileSketch sk = build(s);
    merged_a.merge(sk);
    merged_b.merge(sk);
    Rng rng(Rng::derive(42, s));
    const std::size_t n = 20000 + s * 13777;
    for (std::size_t i = 0; i < n; ++i) exact.add(rng.exponential(3.0));
  }
  EXPECT_EQ(merged_a.count(), exact.count());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Bitwise identical across the two identical merge sequences.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(merged_a.quantile(q)),
              std::bit_cast<std::uint64_t>(merged_b.quantile(q)));
    EXPECT_NEAR(exact.cdf_at(merged_a.quantile(q)), q, 0.015) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(merged_a.min(), exact.min());
  EXPECT_DOUBLE_EQ(merged_a.max(), exact.max());
}

// -------------------------------- rng -------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(9);
  Rng c1 = parent.fork("loss");
  Rng c2 = parent.fork("loss");
  Rng c3 = parent.fork("jitter");
  // Successive forks and distinct labels must differ.
  EXPECT_NE(c1.next_u64(), c2.next_u64());
  EXPECT_NE(c1.next_u64(), c3.next_u64());
}

TEST(Rng, DeriveIsPureAndReproducible) {
  // Same (seed, stream) -> same sub-stream, independent of any other
  // derivation happening before or between.
  const std::uint64_t a = Rng::derive(42, 7);
  Rng::derive(42, 8);
  Rng::derive(99, 7);
  EXPECT_EQ(Rng::derive(42, 7), a);
  Rng r1 = Rng::derived(42, 7);
  Rng r2 = Rng::derived(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST(Rng, DeriveStabilityGuarantee) {
  // The mapping is FROZEN (see rng.h): sharded experiment decomposition and
  // archived fingerprints depend on these exact values. If this test fails,
  // the derivation function changed -- that is a determinism contract break,
  // not a test to update.
  EXPECT_EQ(Rng::derive(0, 0), 0xa706dd2f4d197e6fULL);
  EXPECT_EQ(Rng::derive(1, 0), 0x5e41ab087439611eULL);
  EXPECT_EQ(Rng::derive(42, 1), Rng::derive(42, 1));
  EXPECT_EQ(Rng::derive(42, "schedule"), Rng::derive(42, "schedule"));
  EXPECT_NE(Rng::derive(42, "schedule"), Rng::derive(42, "overlay"));
}

TEST(Rng, DeriveAdjacentStreamsUncorrelated) {
  // Shards are numbered 0..N-1; adjacent ids must give statistically
  // unrelated streams. Cheap guards: distinct seeds, bitwise-decorrelated
  // first outputs, and mean of XORed bit counts near 32.
  const std::uint64_t s0 = Rng::derive(1234, 0);
  const std::uint64_t s1 = Rng::derive(1234, 1);
  EXPECT_NE(s0, s1);
  double bits = 0;
  Rng a(s0), b(s1);
  constexpr int kDraws = 4096;
  for (int i = 0; i < kDraws; ++i) {
    bits += static_cast<double>(std::popcount(a.next_u64() ^ b.next_u64()));
  }
  EXPECT_NEAR(bits / kDraws, 32.0, 1.0);
}

TEST(Rng, DeriveDistinctAcrossSeedsAndStreams) {
  // No collisions over a grid of small seeds x small stream ids (the shapes
  // real scenarios use: seed from config, stream = global path index).
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      EXPECT_TRUE(seen.insert(Rng::derive(seed, stream)).second)
          << "collision at seed=" << seed << " stream=" << stream;
    }
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / 50000.0, 10.0, 0.3);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(9);
  OnlineStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(rng.poisson(3.0));
  for (int i = 0; i < 20000; ++i) large.add(rng.poisson(100.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, PoissonContinuousAcrossLegacyCutover) {
  // The old implementation switched from the Knuth product loop to a
  // normal approximation at mean > 64.0 -- exactly the regime the churn
  // arrival processes live in -- and the product form's comparison against
  // exp(-mean) degraded near the boundary. The log-domain sampler is exact
  // through this whole range, so the distribution must be continuous
  // across 64.0: matching means/variances AND the Poisson skew on both
  // sides. The normal approximation has zero skew, so the skewness checks
  // fail on the pre-fix code.
  constexpr int kDraws = 200000;
  auto moments = [](Rng& rng, double mean, double* skew) {
    OnlineStats s;
    std::vector<double> xs;
    xs.reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      const double x = rng.poisson(mean);
      s.add(x);
      xs.push_back(x);
    }
    double m3 = 0.0;
    for (double x : xs) {
      const double d = x - s.mean();
      m3 += d * d * d;
    }
    m3 /= static_cast<double>(xs.size());
    *skew = m3 / (s.stddev() * s.stddev() * s.stddev());
    return s;
  };

  Rng below_rng(21), above_rng(22);
  double skew_below = 0.0, skew_above = 0.0;
  const OnlineStats below = moments(below_rng, 63.9, &skew_below);
  const OnlineStats above = moments(above_rng, 64.1, &skew_above);

  EXPECT_NEAR(below.mean(), 63.9, 0.15);
  EXPECT_NEAR(above.mean(), 64.1, 0.15);
  EXPECT_NEAR(below.variance(), 63.9, 2.0);
  EXPECT_NEAR(above.variance(), 64.1, 2.0);
  // Poisson skewness is 1/sqrt(mean) ~ 0.125 here; the standard error over
  // 200k draws is ~0.0055, so [0.08, 0.17] is a >5-sigma window.
  EXPECT_NEAR(skew_below, 1.0 / std::sqrt(63.9), 0.045);
  EXPECT_NEAR(skew_above, 1.0 / std::sqrt(64.1), 0.045);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

// ------------------------------ logging -----------------------------------

TEST(Logging, ThresholdGates) {
  const LogLevel before = log_threshold();
  set_log_threshold(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_threshold(LogLevel::kTrace);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug));
  set_log_threshold(before);
}

TEST(Logging, FormatDuration) {
  EXPECT_EQ(format_duration(500), "500us");
  EXPECT_EQ(format_duration(msec(12)), "12ms");
  EXPECT_EQ(format_duration(sec(3)), "3s");
}

// ------------------------------- knobs ------------------------------------

using jqos::testing::EnvVarGuard;

TEST(SimKnobs, ResolveSimThreadsRejectsBogusEnv) {
  for (const char* bad : {"0", "-3", "", "12abc", "garbage", "+"}) {
    EnvVarGuard env("JQOS_SIM_THREADS", std::string(bad));
    try {
      (void)resolve_sim_threads();
      FAIL() << "JQOS_SIM_THREADS='" << bad << "' accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      // Actionable: names the knob, shows the value, says how to clear it.
      EXPECT_NE(msg.find("JQOS_SIM_THREADS"), std::string::npos) << msg;
      EXPECT_NE(msg.find(bad), std::string::npos) << msg;
      EXPECT_NE(msg.find("Unset"), std::string::npos) << msg;
    }
    // An explicit request bypasses the env entirely -- a caller-provided
    // count must not fail because the environment is broken.
    EXPECT_EQ(resolve_sim_threads(3), 3u);
  }
  {
    EnvVarGuard env("JQOS_SIM_THREADS", "4");
    EXPECT_EQ(resolve_sim_threads(), 4u);
  }
  {
    EnvVarGuard env("JQOS_SIM_THREADS", std::nullopt);
    EXPECT_GE(resolve_sim_threads(), 1u);
  }
}

}  // namespace
}  // namespace jqos
