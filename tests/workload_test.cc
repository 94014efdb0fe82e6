// Workload layer: CDF flow sizes, mean-matched arrival processes, and the
// churn runner's two contracts -- leak-free teardown and bit-identical
// results across thread counts and event-queue backends at fixed sharding.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/stats.h"
#include "netsim/event_queue.h"
#include "workload/arrivals.h"
#include "workload/churn.h"
#include "workload/flow_size.h"
#include "test_guards.h"

namespace jqos::workload {
namespace {

// ---------------------------------------------------------------- flow sizes

TEST(FlowSizeDist, RejectsMalformedCdfs) {
  EXPECT_THROW(FlowSizeDist::from_points({}), std::invalid_argument);
  EXPECT_THROW(FlowSizeDist::from_points({{100.0, 1.0}}), std::invalid_argument);
  // Bytes must strictly increase.
  EXPECT_THROW(FlowSizeDist::from_points({{100.0, 0.0}, {100.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDist::from_points({{200.0, 0.0}, {100.0, 1.0}}),
               std::invalid_argument);
  // Cumulative probability must be non-decreasing and reach 1.
  EXPECT_THROW(FlowSizeDist::from_points({{100.0, 0.5}, {200.0, 0.2}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDist::from_points({{100.0, 0.0}, {200.0, 0.9}}),
               std::invalid_argument);
}

TEST(FlowSizeDist, NormalizesFinalKnotToExactlyOne) {
  // Within the 1e-6 tolerance the last knot snaps to 1.0 so sampling can
  // never fall off the end of the CDF.
  const FlowSizeDist d =
      FlowSizeDist::from_points({{100.0, 0.0}, {200.0, 1.0 - 5e-7}});
  EXPECT_DOUBLE_EQ(d.points().back().cum, 1.0);
}

TEST(FlowSizeDist, MeanBytesIsExactForPiecewiseLinearCdf) {
  // Uniform on [0, 100]: mean 50.
  const FlowSizeDist uniform = FlowSizeDist::from_points({{0.0, 0.0}, {100.0, 1.0}});
  EXPECT_NEAR(uniform.mean_bytes(), 50.0, 1e-9);
  // Half the mass uniform on [100, 200] (mean 150), half on [200, 400]
  // (mean 300): total mean 225.
  const FlowSizeDist mixed =
      FlowSizeDist::from_points({{100.0, 0.0}, {200.0, 0.5}, {400.0, 1.0}});
  EXPECT_NEAR(mixed.mean_bytes(), 225.0, 1e-9);
}

TEST(FlowSizeDist, SamplesStayInsideSupportAndMatchMean) {
  for (AppMix mix : {AppMix::kVideoCall, AppMix::kWebTransfer, AppMix::kBulkTcp}) {
    const FlowSizeDist d = FlowSizeDist::app_mix(mix);
    const double lo = d.points().front().bytes;
    const double hi = d.points().back().bytes;
    Rng rng(7);
    double sum = 0.0;
    constexpr int kDraws = 200'000;
    for (int i = 0; i < kDraws; ++i) {
      const double s = d.sample(rng);
      ASSERT_GE(s, lo);
      ASSERT_LE(s, hi);
      sum += s;
    }
    // Inverse-transform sampling of the same piecewise-linear CDF the exact
    // mean integrates: 2% tolerance covers sampling noise at 200k draws.
    EXPECT_NEAR(sum / kDraws, d.mean_bytes(), 0.02 * d.mean_bytes());
  }
}

TEST(FlowSizeDist, LoadsClassicPercentFileFormat) {
  const auto path =
      std::filesystem::temp_directory_path() / "jqos_workload_cdf_test.txt";
  {
    std::ofstream out(path);
    out << "# web-ish example CDF\n"
        << "500 0\n"
        << "\n"
        << "2000 30\n"
        << "100000 90\n"
        << "1000000 100\n";
  }
  const FlowSizeDist d = FlowSizeDist::from_file(path.string());
  ASSERT_EQ(d.points().size(), 4u);
  EXPECT_DOUBLE_EQ(d.points()[1].bytes, 2000.0);
  EXPECT_DOUBLE_EQ(d.points()[1].cum, 0.30);
  EXPECT_DOUBLE_EQ(d.points().back().cum, 1.0);
  std::filesystem::remove(path);

  EXPECT_THROW(FlowSizeDist::from_file("/nonexistent/cdf/file.txt"),
               std::runtime_error);
  {
    std::ofstream out(path);
    out << "500 not-a-number\n";
  }
  EXPECT_THROW(FlowSizeDist::from_file(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------ arrivals

TEST(ArrivalProcess, RejectsInvalidParameters) {
  ArrivalParams p;
  EXPECT_THROW(ArrivalProcess(p, 0.0, Rng(1)), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess(p, -5.0, Rng(1)), std::invalid_argument);
  p.kind = ArrivalKind::kPareto;
  p.pareto_alpha = 1.0;  // Mean does not exist at alpha <= 1.
  EXPECT_THROW(ArrivalProcess(p, 10.0, Rng(1)), std::invalid_argument);
}

TEST(ArrivalProcess, EveryKindMatchesTheSameMeanRate) {
  // The whole point of the parameterization: swapping the arrival kind
  // changes burstiness, never offered load. E[gap] == 1/rate for all three.
  constexpr double kRate = 50.0;
  constexpr int kDraws = 400'000;
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kPareto, ArrivalKind::kLognormal}) {
    ArrivalParams p;
    p.kind = kind;
    ArrivalProcess proc(p, kRate, Rng(1234));
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double gap = proc.next_gap();
      ASSERT_GT(gap, 0.0);
      sum += gap;
    }
    // Pareto at alpha=1.5 has infinite variance, so its sample mean
    // converges slowly; 10% at 400k draws accommodates it (the lighter
    // tails land well inside).
    EXPECT_NEAR(sum / kDraws, 1.0 / kRate, 0.10 / kRate)
        << "kind=" << static_cast<int>(kind);
  }
}

// --------------------------------------------------------------- churn runner

ChurnConfig small_churn() {
  ChurnConfig cfg;
  cfg.num_pairs = 4;
  cfg.duration = sec(5);
  cfg.arrivals.kind = ArrivalKind::kPoisson;
  cfg.arrivals.sessions_per_sec = 40.0;
  cfg.mix = AppMix::kWebTransfer;
  cfg.packets_per_second = 100.0;
  cfg.payload_bytes = 1472;
  cfg.max_session_packets = 120;
  cfg.scenario.seed = 77;
  cfg.num_shards = 2;  // FIXED: sketch merge order depends on it.
  cfg.num_threads = 1;
  return cfg;
}

TEST(Churn, DrainsLeakFreeAndClassifiesEveryPacket) {
  const ChurnResult r = run_churn(small_churn());
  EXPECT_GT(r.totals.sessions_opened, 100u);
  EXPECT_EQ(r.totals.sessions_opened, r.totals.sessions_completed);
  EXPECT_EQ(r.totals.leaked_flows, 0u);
  // After the drain every sent packet has a final classification.
  EXPECT_EQ(r.totals.delivered_direct + r.totals.recovered + r.totals.lost,
            r.totals.packets_sent);
  EXPECT_EQ(r.completion_ms.count(), r.totals.sessions_completed);
  EXPECT_EQ(r.delivered_pct.count(), r.totals.sessions_completed);
}

TEST(Churn, FingerprintBitIdenticalAcrossThreadCounts) {
  // The ISSUE's determinism contract: at fixed num_shards the merged result
  // is a pure function of the config -- thread count (1, 3, or
  // JQOS_SIM_THREADS/hardware default) must not show through.
  ChurnConfig cfg = small_churn();
  cfg.num_threads = 1;
  const std::uint64_t fp1 = run_churn(cfg).fingerprint();
  cfg.num_threads = 3;
  const std::uint64_t fp3 = run_churn(cfg).fingerprint();
  cfg.num_threads = 0;
  const std::uint64_t fp_auto = run_churn(cfg).fingerprint();
  EXPECT_EQ(fp1, fp3);
  EXPECT_EQ(fp1, fp_auto);
}

TEST(Churn, FingerprintBitIdenticalAcrossEventQueueBackends) {
  std::uint64_t fp_ladder = 0, fp_heap = 0;
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kLadder);
    fp_ladder = run_churn(small_churn()).fingerprint();
  }
  {
    const jqos::testing::EvqBackendGuard guard(netsim::EvqBackend::kHeap);
    fp_heap = run_churn(small_churn()).fingerprint();
  }
  EXPECT_EQ(fp_ladder, fp_heap);
}

TEST(Churn, SketchRankErrorWithinOnePercentAtReportedQuantiles) {
  // The sketch configuration the churn runner uses (k=1024) must hold rank
  // error <= 1% at every quantile bench_churn reports. Feeding 0..n-1 makes
  // rank error directly readable from the returned value.
  constexpr std::size_t kN = 100'000;
  QuantileSketch sketch(1024);
  Rng rng(5);
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) values[i] = static_cast<double>(i);
  // Shuffle: sorted input is the sketch's easiest case, not a fair test.
  for (std::size_t i = kN - 1; i > 0; --i) {
    std::swap(values[i], values[rng.uniform_int(0, static_cast<int>(i))]);
  }
  for (double v : values) sketch.add(v);
  for (double q : {0.5, 0.99, 0.999}) {
    const double got = sketch.quantile(q);
    EXPECT_NEAR(got, q * (kN - 1), 0.01 * kN) << "q=" << q;
  }
}

}  // namespace
}  // namespace jqos::workload
