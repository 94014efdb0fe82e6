// The benchmark's workloads: how each one's inputs are made from the seed,
// how it is set up and run, and how its books are checked.
//
// Both programs (perfbench_main.cc, untraced; trace_main.cc, traced) share
// this file, so a traced run and an untraced run of one workload and seed
// are built from identical inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/scenario.h"
#include "workload/churn.h"

namespace perfbench {

enum class Workload { kChurnWeb, kCrwanCode, kCachePull };

// Accepts "churn_web", "crwan_code", "cache_pull".
bool parse_workload(std::string_view name, Workload* out);

// Worker threads the workload's end-to-end run uses: 1 for churn_web and
// cache_pull, min(4, hardware threads) for crwan_code.
unsigned workload_threads(Workload w);

// churn_web: 45 paths, Poisson arrivals at 2000 sessions/s for 10 simulated
// seconds, web-mix sizes, 1472 B payloads at 100 pkt/s, coding service.
jqos::workload::ChurnConfig churn_config(std::uint64_t seed);

// crwan_code and cache_pull: the fig8/fig10-shaped 45-path deployment.
struct Deployment {
  jqos::exp::WanScenarioParams params;
  jqos::SimDuration duration = 0;
};
Deployment deployment(Workload w);

// Path synthesis for a workload (the geography run_churn would draw, or the
// fixed 45-path deployment).
std::vector<jqos::geo::PathSample> workload_paths(Workload w, std::uint64_t seed);

// Everything that happens before the first event: path synthesis, shard
// planning and shard construction, on `threads` workers.
struct Setup {
  double paths_s = 0.0;  // geo::planetlab_paths
  double build_s = 0.0;  // exp::plan_shards + ScenarioShard construction
  std::vector<std::unique_ptr<jqos::exp::ScenarioShard>> shards;
};
Setup build_shards(Workload w, std::uint64_t seed, unsigned threads);

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// What one run of a workload produced, and what its checks found.
struct Books {
  std::uint64_t attempted = 0;  // Sessions (churn_web) or path flows.
  std::uint64_t failed = 0;     // Operations whose books do not balance.
  std::uint64_t packets = 0;    // Application packets the senders emitted.
  std::uint64_t recovered = 0;  // Repaired within the give-up window.
  std::uint64_t events = 0;
  // Wall seconds of the simulation itself (run_churn, or the shards' runs),
  // without the books and the teardown.
  double run_s = 0.0;
  double recovery_p50_ms = 0.0;
  double recovery_p99_ms = 0.0;
  // FNV-1a over every path's outcome vector and counters (or the churn
  // fingerprint) and the event count: equal digests mean equal results.
  std::uint64_t digest = 0;
  jqos::services::EncoderStats encoder;
  jqos::services::RecoveryStatsDc recovery;
  std::vector<Check> checks;   // Run-level checks (not per operation).
};

// Books of a churn run.
Books churn_books(const jqos::workload::ChurnResult& r, const jqos::workload::ChurnConfig& cfg);

// Books of a finished deployment run over `shards` (ShardedRunner's or
// shards built by build_shards and run by the caller).
Books deployment_books(Workload w, const Deployment& d,
                       const std::vector<jqos::exp::ScenarioShard*>& shards);

// One end-to-end run of the workload as users run it: run_churn (always one
// thread), or exp::ShardedRunner on `threads` workers.
Books run_workload(Workload w, std::uint64_t seed, unsigned threads);

// Command line shared by both programs: --workload <name> --seed <n>, and
// for the traced program an optional --untraced.
struct Args {
  Workload workload = Workload::kChurnWeb;
  std::uint64_t seed = 0;
  bool untraced = false;
};
// Parses the command line; prints usage and returns false when it is bad.
bool parse_args(int argc, char** argv, Args* out);

// Output lines both programs print: one {"setup":...} line for each of
// several set-ups of the workload (each is built on one thread and then
// discarded), and the resolved GF(256) and event-queue backends with the
// worker-thread count. Set-ups run on one thread whatever the workload's
// thread count, so that setup_s times the set-up work and not the start of
// a worker pool.
void print_setups(const Args& args);
void print_env(Workload w);

// JSON helpers for the programs' output lines.
std::string json_number(double v);
std::string json_string(std::string_view s);
std::string checks_json(const std::vector<Check>& checks);

// Process CPU seconds (user + system) and peak resident set, in MB.
double process_cpu_s();
double peak_rss_mb();

}  // namespace perfbench
