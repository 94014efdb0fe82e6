#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "common/packet.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "exp/sharded_runner.h"
#include "fec/gf256_simd.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"

namespace perfbench {

using namespace jqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::size_t kPaths = 45;
// Every workload runs scenario seed 42, the fig10 deployment's and
// bench_churn's. A fresh scenario seed redraws the 45 per-path loss
// severities (lognormal, sigma 1.3) and the rare 1-3 s outages, which moves
// recovered_pkts by more than 2x from seed to seed; the benchmark seed
// instead varies the inputs below, which keeps the amount of work and loss
// fixed (see README.md, "Seeds").
constexpr std::uint64_t kScenarioSeed = 42;
// Set-ups per call of print_setups. One set-up takes well under a
// millisecond, so setup_s is the median of many.
constexpr int kSetupReps = 150;

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  if (name == "churn_web") {
    *out = Workload::kChurnWeb;
  } else if (name == "crwan_code") {
    *out = Workload::kCrwanCode;
  } else if (name == "cache_pull") {
    *out = Workload::kCachePull;
  } else {
    return false;
  }
  return true;
}

unsigned workload_threads(Workload w) {
  if (w != Workload::kCrwanCode) return 1;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

workload::ChurnConfig churn_config(std::uint64_t seed) {
  workload::ChurnConfig cfg;
  cfg.num_pairs = kPaths;
  cfg.duration = sec(10);
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  // The seed retimes every arrival: the aggregate rate is drawn uniformly
  // from 2000/s +- 0.25%, which scales every Poisson gap.
  cfg.arrivals.sessions_per_sec =
      2000.0 * (1.0 + Rng(Rng::derive(seed, "perfbench-rate")).uniform(-0.0025, 0.0025));
  cfg.mix = workload::AppMix::kWebTransfer;
  cfg.payload_bytes = 1472;
  cfg.packets_per_second = 100.0;
  // bench_churn's soak cap: web-mix sessions stay short bursts.
  cfg.max_session_packets = 300;
  cfg.scenario.service = ServiceType::kCode;
  cfg.scenario.seed = kScenarioSeed;
  cfg.num_threads = 1;
  return cfg;
}

Deployment deployment(Workload w) {
  Deployment d;
  exp::WanScenarioParams& p = d.params;
  p.service = w == Workload::kCachePull ? ServiceType::kCache : ServiceType::kCode;
  p.seed = kScenarioSeed;
  p.coding.k = 6;
  p.coding.cross_coded = 2;
  p.coding.in_block = 5;
  p.coding.in_coded = 1;
  p.coding.queue_timeout = msec(300);
  p.cbr.on_duration = minutes(2);
  p.cbr.mean_off = minutes(1);
  p.cbr.packets_per_second = 100.0;
  p.cbr.payload_bytes = 512;
  d.duration = w == Workload::kCachePull ? minutes(4) : minutes(8);
  return d;
}

std::vector<geo::PathSample> workload_paths(Workload w, std::uint64_t seed) {
  if (w == Workload::kChurnWeb) {
    // The stream run_churn draws, so build_shards constructs the shards
    // run_churn would construct.
    Rng rng(Rng::derive(churn_config(seed).scenario.seed, "churn-paths"));
    return geo::planetlab_paths(kPaths, rng);
  }
  // The fig10 deployment's 45 host pairs. The seed shuffles them within each
  // (DC1, DC2) interaction group. Per-path streams (loss severity, bursts,
  // outages, jitter, send skew, stragglers) derive from the path's index,
  // so the shuffle deals a group's loss processes to its host pairs in
  // another order, while the shard plan and every group's cooperative peers
  // stay the same.
  Rng rng(kScenarioSeed);
  std::vector<geo::PathSample> paths = geo::planetlab_paths(kPaths, rng);
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    groups[{paths[i].dc1.name, paths[i].dc2.name}].push_back(i);
  }
  Rng order(Rng::derive(seed, "perfbench-order"));
  for (const auto& [pair, members] : groups) {
    for (std::size_t i = members.size(); i > 1; --i) {
      const std::int64_t j = order.uniform_int(0, static_cast<std::int64_t>(i) - 1);
      std::swap(paths[members[i - 1]], paths[members[static_cast<std::size_t>(j)]]);
    }
  }
  return paths;
}

Setup build_shards(Workload w, std::uint64_t seed, unsigned threads) {
  Setup s;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<geo::PathSample> paths = workload_paths(w, seed);
  s.paths_s = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  exp::WanScenarioParams params;
  if (w == Workload::kChurnWeb) {
    params = churn_config(seed).scenario;
    params.record_delay_samples = false;  // As run_churn sets it.
  } else {
    params = deployment(w).params;
  }
  const auto plans = exp::plan_shards(paths, 0);
  const netsim::EvqBackend backend = netsim::evq_default_backend();
  s.shards.resize(plans.size());
  parallel_for_indexed(plans.size(), threads, [&](std::size_t i) {
    s.shards[i] = std::make_unique<exp::ScenarioShard>(plans[i], params, backend);
  });
  s.build_s = seconds_since(t1);
  return s;
}

Books churn_books(const workload::ChurnResult& r, const workload::ChurnConfig& cfg) {
  const workload::ChurnTotals& t = r.totals;
  Books b;
  b.attempted = t.sessions_opened;
  b.failed = t.sessions_opened - std::min(t.sessions_opened, t.sessions_completed);
  b.packets = t.packets_sent;
  b.recovered = t.recovered;
  b.events = r.events;
  b.recovery_p50_ms = r.recovery_ms.quantile(0.50);
  b.recovery_p99_ms = r.recovery_ms.quantile(0.99);
  b.digest = r.fingerprint();
  b.encoder = r.encoder;
  b.recovery = r.recovery;

  // run_churn merges per-session books into totals, so the balance is
  // checked on the totals: every packet sent was delivered, recovered or
  // declared lost.
  const std::uint64_t booked = t.delivered_direct + t.recovered + t.lost;
  b.checks.push_back({"churn.packets_balance", booked == t.packets_sent,
                      "direct+recovered+lost=" + std::to_string(booked) +
                          " sent=" + std::to_string(t.packets_sent)});
  b.checks.push_back({"churn.opened_eq_completed", t.sessions_opened == t.sessions_completed,
                      "opened=" + std::to_string(t.sessions_opened) +
                          " completed=" + std::to_string(t.sessions_completed)});
  b.checks.push_back({"churn.no_leaked_flows", t.leaked_flows == 0,
                      "leaked_flows=" + std::to_string(t.leaked_flows)});
  // Arrivals are Poisson: the session count is Poisson with mean
  // rate * duration, so a count beyond 5 sigma means the arrival process or
  // its bookkeeping is off.
  const double mean = cfg.arrivals.sessions_per_sec * to_sec(cfg.duration);
  const double z = (static_cast<double>(t.sessions_opened) - mean) / std::sqrt(mean);
  b.checks.push_back({"churn.poisson_sessions", std::fabs(z) <= 5.0,
                      "opened=" + std::to_string(t.sessions_opened) +
                          " mean=" + json_number(mean) + " z=" + json_number(z)});
  b.checks.push_back({"churn.min_recovered", t.recovered >= 1000,
                      "recovered=" + std::to_string(t.recovered)});
  return b;
}

Books deployment_books(Workload w, const Deployment& d,
                       const std::vector<exp::ScenarioShard*>& shards) {
  std::vector<const exp::PathRuntime*> paths;
  Books b;
  std::uint64_t egress_bytes = 0;
  for (exp::ScenarioShard* s : shards) {
    for (std::size_t i = 0; i < s->path_count(); ++i) paths.push_back(&s->path(i));
    b.events += s->sim().events_processed();
    b.encoder += s->encoder_totals();
    b.recovery += s->recovery_totals();
    overlay::OverlayNetwork& overlay = s->overlay();
    for (std::size_t j = 0; j < overlay.dc_count(); ++j) {
      egress_bytes += overlay.dc(j).egress_bytes();
    }
  }
  std::sort(paths.begin(), paths.end(),
            [](const exp::PathRuntime* a, const exp::PathRuntime* c) {
              return a->global_index < c->global_index;
            });

  Samples recovery_ms;
  std::uint64_t delivered = 0;
  b.digest = kFnvBasis;
  for (const exp::PathRuntime* rt : paths) {
    const std::uint64_t sent = rt->sender->next_seq(rt->flow);
    // Recount the outcome vector independently of the running counters.
    std::uint64_t n[4] = {0, 0, 0, 0};
    for (exp::Outcome o : rt->outcome) ++n[static_cast<std::size_t>(o)];
    const bool balanced = rt->delivered_direct + rt->recovered + rt->lost == sent &&
                          rt->outcome.size() == sent && n[0] == 0 &&
                          n[1] == rt->delivered_direct && n[2] == rt->recovered &&
                          n[3] == rt->lost;
    ++b.attempted;
    if (!balanced) ++b.failed;
    b.packets += sent;
    b.recovered += rt->recovered;
    delivered += rt->delivered_direct + rt->recovered;
    // Latencies of the repairs recovered_pkts counts: those within the
    // give-up window, by the test the path's delivery recorder applies.
    for (double v : rt->recovery_ms.values()) {
      if (v <= rt->give_up_rtts * rt->rtt_ms) recovery_ms.add(v);
    }

    for (std::uint64_t v : {static_cast<std::uint64_t>(rt->global_index), sent,
                            rt->delivered_direct, rt->recovered, rt->lost}) {
      fnv_mix(b.digest, v);
    }
    for (exp::Outcome o : rt->outcome) fnv_mix(b.digest, static_cast<std::uint64_t>(o));
  }
  fnv_mix(b.digest, b.events);
  b.recovery_p50_ms = recovery_ms.percentile(50.0);
  b.recovery_p99_ms = recovery_ms.percentile(99.0);

  b.checks.push_back({"paths.count", paths.size() == kPaths,
                      "paths=" + std::to_string(paths.size())});
  b.checks.push_back({"paths.min_recovered", b.recovered >= 1000,
                      "recovered=" + std::to_string(b.recovered)});
  if (w == Workload::kCrwanCode) {
    // Fig. 2's cost ordering: the coding service's cloud egress per
    // delivered byte lies between the coded fraction r/k that the batch
    // shape fixes and one wire copy of the data (what caching or
    // forwarding would cost).
    const double data_wire = static_cast<double>(packet_header_bytes() +
                                                 d.params.cbr.payload_bytes);
    const double per_delivered =
        static_cast<double>(egress_bytes) / (static_cast<double>(delivered) * data_wire);
    const double lo = static_cast<double>(d.params.coding.cross_coded) /
                      static_cast<double>(d.params.coding.k);
    b.checks.push_back({"crwan.egress_between_coded_and_copy",
                        delivered > 0 && per_delivered >= lo && per_delivered <= 1.0,
                        "egress_per_delivered_byte=" + json_number(per_delivered) +
                            " lo=" + json_number(lo) + " hi=1"});
  }
  return b;
}

Books run_workload(Workload w, std::uint64_t seed, unsigned threads) {
  if (w == Workload::kChurnWeb) {
    const workload::ChurnConfig cfg = churn_config(seed);
    const auto t0 = std::chrono::steady_clock::now();
    const workload::ChurnResult r = workload::run_churn(cfg);
    const double run_s = seconds_since(t0);
    Books b = churn_books(r, cfg);
    b.run_s = run_s;
    return b;
  }
  const Deployment d = deployment(w);
  exp::ShardedRunParams run_params;
  run_params.num_threads = threads;
  exp::ShardedRunner runner(workload_paths(w, seed), d.params, run_params);
  const auto t0 = std::chrono::steady_clock::now();
  runner.run(d.duration);
  const double run_s = seconds_since(t0);
  std::vector<exp::ScenarioShard*> shards;
  for (std::size_t i = 0; i < runner.shard_count(); ++i) shards.push_back(&runner.shard(i));
  Books b = deployment_books(w, d, shards);
  b.run_s = run_s;
  return b;
}

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false;
  bool have_seed = false;
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--untraced") {
      out->untraced = true;
    } else if (flag == "--workload" && i + 1 < argc) {
      have_workload = parse_workload(argv[++i], &out->workload);
    } else if (flag == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      const char* value = argv[++i];
      out->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *value != '-' && *end == '\0';
    } else {
      ok = false;
    }
  }
  if (ok && have_workload && have_seed) return true;
  std::fprintf(stderr,
               "usage: %s --workload <churn_web|crwan_code|cache_pull> --seed <n> [--untraced]\n",
               argv[0]);
  return false;
}

void print_setups(const Args& args) {
  for (int i = 0; i < kSetupReps; ++i) {
    const Setup s = build_shards(args.workload, args.seed, 1);
    std::printf("{\"setup\":{\"paths_s\":%s,\"build_s\":%s}}\n", json_number(s.paths_s).c_str(),
                json_number(s.build_s).c_str());
  }
  std::fflush(stdout);
}

void print_env(Workload w) {
  std::printf("{\"env\":{\"gf_backend\":%s,\"evq_backend\":%s,\"threads\":%u}}\n",
              json_string(fec::gf_backend_name()).c_str(),
              json_string(netsim::evq_backend_name(netsim::evq_default_backend())).c_str(),
              workload_threads(w));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string checks_json(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + json_string(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + json_string(checks[i].detail) + "}";
  }
  return out + "]";
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace perfbench
