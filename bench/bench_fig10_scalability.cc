// Figure 10 reproduction: encoding throughput of the CR-WAN prototype as a
// function of encoding threads. Real multithreaded Reed-Solomon encoding
// (the DC1 hot path), measured with google-benchmark.
//
// The paper reports ~65 Kpps per thread and linear scaling to ~500 Kpps at
// 8 threads on their hardware; the property to reproduce is the linear
// shape (absolute Kpps depends on the machine).
//
// Before the thread sweep, a single-threaded per-backend pass forces each
// available GF(256) kernel backend (scalar / ssse3 / avx2) through the same
// encode loop and reports MB/s and Kpps per backend, so the SIMD speedup is
// measured on every run rather than asserted. With --json those rows are
// emitted as JSON Lines (see bench_json.h) and the google-benchmark thread
// sweep is skipped — use --benchmark_format=json for machine-readable
// thread-scaling data.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/alloc_probe.h"
#include "common/packet_pool.h"
#include "common/rng.h"
#include "exp/sharded_runner.h"
#include "fec/gf256_simd.h"
#include "fec/reed_solomon.h"
#include "netsim/network.h"
#include "threads_sweep.h"

namespace {

using namespace jqos;

constexpr std::size_t kPacketBytes = 512;  // The paper's accounting size.
constexpr std::size_t kBlock = 5;          // One coded packet per 5 data packets.

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// One encoder worker's working set: k data shards + 1 parity shard.
struct WorkerState {
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<std::uint8_t> parity;
  std::vector<const std::uint8_t*> data_ptrs;
  std::uint8_t* parity_ptr[1];

  WorkerState() : data(kBlock, std::vector<std::uint8_t>(kPacketBytes)), parity(kPacketBytes) {
    Rng rng(1234);
    for (auto& shard : data) {
      for (auto& b : shard) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    for (auto& shard : data) data_ptrs.push_back(shard.data());
    parity_ptr[0] = parity.data();
  }
};

// Measures packets/second processed by N independent encoding threads,
// mirroring the paper's load-balanced per-thread streams.
void BM_EncodeThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const fec::ReedSolomon rs(kBlock, 1);
  std::uint64_t total_packets = 0;

  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(threads), 0);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        WorkerState ws;
        std::uint64_t blocks = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          rs.encode_into(ws.data_ptrs.data(), kPacketBytes, ws.parity_ptr);
          benchmark::DoNotOptimize(ws.parity.data());
          ++blocks;
        }
        counts[static_cast<std::size_t>(t)] = blocks * kBlock;
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    for (auto& w : workers) w.join();
    std::uint64_t packets = 0;
    for (std::uint64_t c : counts) packets += c;
    total_packets += packets;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(total_packets));
  state.counters["pps"] =
      benchmark::Counter(static_cast<double>(total_packets), benchmark::Counter::kIsRate);
  state.counters["threads"] = threads;
  state.counters["pps_per_thread"] = benchmark::Counter(
      static_cast<double>(total_packets) / threads, benchmark::Counter::kIsRate);
}

// Single-threaded encode throughput of one GF(256) backend: repeatedly
// encodes k=5 blocks of 512 B packets for ~300 ms and reports how many
// megabytes of data packets per second the kernel pushed.
struct BackendPoint {
  fec::GfBackend backend;
  double mbps;
  double kpps;
};

BackendPoint measure_backend(fec::GfBackend backend) {
  if (!fec::gf_set_backend(backend)) return {backend, 0.0, 0.0};
  const fec::ReedSolomon rs(kBlock, 1);
  WorkerState ws;
  using Clock = std::chrono::steady_clock;

  // Warm-up: fault in tables and settle the clock.
  for (int i = 0; i < 50; ++i) rs.encode_into(ws.data_ptrs.data(), kPacketBytes, ws.parity_ptr);

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(300);
  std::uint64_t blocks = 0;
  while (Clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      rs.encode_into(ws.data_ptrs.data(), kPacketBytes, ws.parity_ptr);
      benchmark::DoNotOptimize(ws.parity.data());
    }
    blocks += 64;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  const double bytes = static_cast<double>(blocks) * kBlock * kPacketBytes;
  return {backend, bytes / secs / 1e6, static_cast<double>(blocks) * kBlock / secs / 1e3};
}

// Runs the per-backend sweep; returns the rows so main can print or emit.
std::vector<BackendPoint> sweep_backends() {
  std::vector<BackendPoint> points;
  for (fec::GfBackend b : fec::gf_available_backends()) {
    points.push_back(measure_backend(b));
  }
  fec::gf_set_backend(fec::gf_best_backend());
  return points;
}

// ---------------- netsim packet-dispatch sweep (event core) ----------------
//
// The coding kernels stopped being the bottleneck after the SIMD work; the
// simulator's event core is what bounds how many packets a figure sweep can
// push. This sweep drives >= 1M simulated packets through the real netsim
// fabric (Network + bandwidth-serialized jittered links, windowed senders)
// once per event-queue backend and reports end-to-end events/sec.
struct NetsimPoint {
  netsim::EvqBackend backend;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  // Global-allocator hits during the timed run.
  double wall_sec = 0.0;

  double events_per_sec() const { return static_cast<double>(events) / wall_sec; }
  double kpps() const { return static_cast<double>(packets) / wall_sec / 1e3; }
  double mpps() const { return kpps() / 1e3; }
  double allocs_per_packet() const {
    return packets > 0 ? static_cast<double>(allocs) / static_cast<double>(packets) : 0.0;
  }
};

NetsimPoint run_netsim_sweep(netsim::EvqBackend backend, std::uint64_t total_packets) {
  // One pool for the whole sweep (single-threaded dispatch): env-gated, so
  // JQOS_OBJ_POOL=0 measures the pre-pool allocating path for comparison.
  // Declared first so it outlives every packet the fabric holds.
  PacketPool pool;
  netsim::Simulator sim(backend);
  netsim::Network net(sim);
  Rng rng(7);

  constexpr std::size_t kFlows = 16;
  constexpr std::size_t kWindow = 256;  // Outstanding packets per flow.
  const std::uint64_t per_flow = total_packets / kFlows;

  struct Pump final : netsim::Node {
    netsim::Network& net;
    PacketPool& pool;
    NodeId self;
    NodeId peer = 0;
    FlowId flow = 0;
    std::uint64_t to_send = 0;
    std::uint64_t received = 0;
    SeqNo next_seq = 0;

    Pump(netsim::Network& n, PacketPool& pl, NodeId id) : net(n), pool(pl), self(id) {}
    NodeId id() const override { return self; }
    void send_one() {
      if (to_send == 0) return;
      --to_send;
      net.send(self, make_data_packet(flow, next_seq++, self, peer, 0, 512, &pool));
    }
    void handle_packet(const PacketPtr&) override {}
  };

  struct Sink final : netsim::Node {
    NodeId self;
    Pump* pump = nullptr;
    std::uint64_t received = 0;
    explicit Sink(NodeId id) : self(id) {}
    NodeId id() const override { return self; }
    void handle_packet(const PacketPtr&) override {
      ++received;
      pump->send_one();  // Sliding window: every delivery releases one send.
    }
  };

  std::vector<std::unique_ptr<Pump>> pumps;
  std::vector<std::unique_ptr<Sink>> sinks;
  for (std::size_t f = 0; f < kFlows; ++f) {
    auto pump = std::make_unique<Pump>(net, pool, net.allocate_id());
    auto sink = std::make_unique<Sink>(net.allocate_id());
    pump->peer = sink->id();
    pump->flow = static_cast<FlowId>(f + 1);
    pump->to_send = per_flow;
    sink->pump = pump.get();
    net.attach(*pump);
    net.attach(*sink);
    netsim::JitterParams jp;
    jp.base = msec(20);
    jp.jitter_scale_ms = 2.0;
    // 1 Gbps with ~540 B wire packets: ~4.3 us serialization per packet.
    net.add_link(pump->id(), sink->id(), netsim::make_jitter_latency(jp, rng.fork("j")),
                 netsim::make_no_loss(), 1e9);
    pumps.push_back(std::move(pump));
    sinks.push_back(std::move(sink));
  }

  alloc_probe::reset();
  const auto start = std::chrono::steady_clock::now();
  for (auto& p : pumps) {
    for (std::size_t w = 0; w < kWindow; ++w) p->send_one();
  }
  sim.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  NetsimPoint point;
  point.backend = backend;
  for (auto& s : sinks) point.packets += s->received;
  point.events = sim.events_processed();
  point.allocs = alloc_probe::allocations();
  point.wall_sec = secs;
  return point;
}

// ------------- sharded full-stack scenario sweep (whole machine) -----------
//
// The per-core story above (SIMD kernels, ladder event queue) multiplies by
// the core count through exp::ShardedRunner: the fig8-shaped 45-path
// deployment is partitioned into (DC1,DC2) shards and run one-per-thread.
// Merged results are bit-identical across every row (the runner's
// determinism contract); the sweep measures wall-clock scaling only.
bench::ThreadsSweepRow run_sharded_scenario(unsigned threads, SimDuration duration,
                                            double packets_per_second) {
  Rng rng(42);
  auto paths = geo::planetlab_paths(45, rng);

  exp::WanScenarioParams params;
  params.service = ServiceType::kCode;
  params.seed = 42;
  params.coding.k = 6;
  params.coding.cross_coded = 2;
  params.coding.in_block = 5;
  params.coding.in_coded = 1;
  params.coding.queue_timeout = msec(300);
  params.cbr.on_duration = minutes(2);
  params.cbr.mean_off = minutes(1);
  params.cbr.packets_per_second = packets_per_second;

  exp::ShardedRunParams run_params;
  run_params.num_threads = threads;
  exp::ShardedRunner runner(std::move(paths), params, run_params);

  const auto start = std::chrono::steady_clock::now();
  runner.run(duration);
  bench::ThreadsSweepRow point;
  point.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  point.threads = runner.threads_used();
  point.shards = runner.shard_count();
  point.events = runner.total_events();
  for (std::size_t i = 0; i < runner.path_count(); ++i) {
    point.packets += static_cast<std::uint64_t>(runner.path(i).outcome.size());
  }
  return point;
}

}  // namespace

BENCHMARK(BM_EncodeThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(7)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

int main(int argc, char** argv) {
  const bool json = jqos::bench::want_json(argc, argv);
  const bool quick = jqos::bench::want_flag(argc, argv, "--quick");

  // Event-core sweep: >= 1M simulated packets through the netsim fabric,
  // once per event-queue backend (the heap row is the regression baseline).
  const std::uint64_t sim_packets = quick ? 100'000 : 1'000'000;
  std::vector<NetsimPoint> netsim_points;
  for (netsim::EvqBackend b : {netsim::EvqBackend::kHeap, netsim::EvqBackend::kLadder}) {
    netsim_points.push_back(run_netsim_sweep(b, sim_packets));
  }

  // Sharded scenario sweep: the full service stack across threads 1/2/4/max.
  const jqos::SimDuration sweep_duration = quick ? jqos::sec(60) : jqos::minutes(8);
  const double sweep_pps = quick ? 40.0 : 100.0;
  std::vector<jqos::bench::ThreadsSweepRow> sharded_points;
  for (unsigned t : jqos::bench::sweep_thread_counts()) {
    sharded_points.push_back(run_sharded_scenario(t, sweep_duration, sweep_pps));
  }

  const auto points = sweep_backends();
  double scalar_mbps = 0.0;
  for (const auto& p : points) {
    if (p.backend == fec::GfBackend::kScalar) scalar_mbps = p.mbps;
  }
  if (json) {
    jqos::bench::emit_threads_sweep("fig10_scalability", "sharded_scenario",
                                    sharded_points);
    for (const auto& p : netsim_points) {
      jqos::bench::JsonRow row("fig10_scalability");
      row.add("name", "netsim_dispatch")
          .add("backend", netsim::evq_backend_name(p.backend))
          .add("packets", p.packets)
          .add("events", p.events)
          .add("wall_sec", p.wall_sec)
          .add("events_per_sec", p.events_per_sec())
          .add("kpps", p.kpps())
          .add("mpps", p.mpps())
          .add("peak_rss_mb", peak_rss_mb());
      // Omitted under sanitizers (the probe is stubbed) so the regression
      // gate never compares a fake zero against a real count.
      if (alloc_probe::active()) row.add("allocs_per_packet", p.allocs_per_packet());
      row.emit();
    }
    for (const auto& p : points) {
      jqos::bench::JsonRow("fig10_scalability")
          .add("name", "encode_backend")
          .add("backend", fec::gf_backend_name(p.backend))
          .add("k", static_cast<std::uint64_t>(kBlock))
          .add("packet_bytes", static_cast<std::uint64_t>(kPacketBytes))
          .add("mbps", p.mbps)
          .add("kpps", p.kpps)
          .add("speedup_vs_scalar", scalar_mbps > 0 ? p.mbps / scalar_mbps : 0.0)
          .emit();
    }
    // The thread-scaling sweep is google-benchmark's; its own
    // --benchmark_format=json covers the machine-readable case.
    return 0;
  }

  char sweep_header[128];
  std::snprintf(sweep_header, sizeof(sweep_header),
                "== Sharded full-stack scenario: 45 paths, %s simulated per row ==",
                jqos::format_duration(sweep_duration).c_str());
  jqos::bench::print_threads_sweep(sweep_header, sharded_points);
  std::printf("\n");

  std::printf("== Netsim packet dispatch: %llu simulated packets, per event-queue backend ==\n",
              static_cast<unsigned long long>(sim_packets));
  std::printf("%-8s %12s %12s %14s %12s %12s\n", "backend", "packets", "events",
              "events/sec", "Kpps", "allocs/pkt");
  for (const auto& p : netsim_points) {
    char apx[32];
    if (alloc_probe::active()) {
      std::snprintf(apx, sizeof(apx), "%.4f", p.allocs_per_packet());
    } else {
      std::snprintf(apx, sizeof(apx), "n/a");
    }
    std::printf("%-8s %12llu %12llu %14.0f %12.1f %12s\n",
                netsim::evq_backend_name(p.backend),
                static_cast<unsigned long long>(p.packets),
                static_cast<unsigned long long>(p.events), p.events_per_sec(), p.kpps(),
                apx);
  }
  std::printf("(peak rss %.1f MB; pooled steady state must be ~0 allocs/pkt -- the\n"
              " CI-run steady_state_alloc_test asserts the exact zero)\n\n",
              peak_rss_mb());

  std::printf("== GF(256) backend sweep: single-thread encode, k=5, 512 B packets ==\n");
  std::printf("%-8s %12s %12s %10s\n", "backend", "MB/s", "Kpps", "vs scalar");
  for (const auto& p : points) {
    std::printf("%-8s %12.1f %12.1f %9.2fx\n", fec::gf_backend_name(p.backend), p.mbps,
                p.kpps, scalar_mbps > 0 ? p.mbps / scalar_mbps : 0.0);
  }
  std::printf("(active backend for the thread sweep below: %s)\n\n", fec::gf_backend_name());

  std::printf("== Figure 10: encode throughput vs threads (512 B packets, s = 1/5) ==\n");
  std::printf("Paper (Dell R430, 32 hw threads): ~65 Kpps/thread, ~500 Kpps @ 8 threads;\n");
  std::printf("reproduce the LINEAR SHAPE -- absolute Kpps is hardware-dependent.\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
