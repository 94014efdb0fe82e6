// Untraced end-to-end program: sets the workload up several times, then runs
// one round of it, as a user would run it once in a fresh process. Prints
// one JSON object per line; run.py starts rounds until its time is up and
// turns their lines into the benchmark's result line.
//
//   perfbench --workload <churn_web|crwan_code|cache_pull> --seed <n>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// cpu_s is the process's CPU time so far: the first set-ups, the run, its
// books and its teardown.
void print_round(const Books& b) {
  std::printf(
      "{\"round\":{\"run_s\":%s,\"cpu_s\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"packets\":%" PRIu64 ",\"recovered\":%" PRIu64 ",\"events\":%" PRIu64
      ",\"recovery_p50_ms\":%s,\"recovery_p99_ms\":%s,\"digest\":\"%s\",\"checks\":%s}}\n",
      json_number(b.run_s).c_str(), json_number(process_cpu_s()).c_str(), b.attempted, b.failed,
      b.packets, b.recovered, b.events, json_number(b.recovery_p50_ms).c_str(),
      json_number(b.recovery_p99_ms).c_str(), hex(b.digest).c_str(), checks_json(b.checks).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;
  // Set-ups before and after the round: the host's speed drifts over
  // seconds, and two bursts per round sample more of it than one.
  print_setups(args);
  print_round(run_workload(args.workload, args.seed, workload_threads(args.workload)));
  print_setups(args);

  print_env(args.workload);
  std::printf("{\"peak_rss_mb\":%s}\n", json_number(peak_rss_mb()).c_str());
  return 0;
}
