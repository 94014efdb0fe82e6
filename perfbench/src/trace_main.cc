// Traced per-layer program. Links jqos_alloc_probe (counting operator new)
// and, on crwan_code and cache_pull, builds the shards itself so it can put
// a timing decorator in front of every DataCenter and Receiver through the
// public netsim::Network::attach. The fabric looks nodes up at delivery
// time, so each decorator sees every packet its node handles.
//
// One process runs one round on one thread: traced, or with --untraced the
// reference run (the call the end-to-end program makes, on one thread). A
// traced round must reproduce the reference's event count and per-path
// outcomes exactly; run.py compares them.
//
// churn_web: run_churn builds its shards internally and offers no seam for
// the decorators, so its traced rounds report counts only.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace jqos;

// The layers a DataCenter or Receiver handler call is charged to.
enum Layer : std::size_t { kEncoder, kRecovery, kCaching, kReceiver, kOtherDc, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {
    "services.encoder", "services.recovery", "services.caching", "endpoint.receiver",
    "services.other"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Which service a DataCenter runs for this packet.
Layer dc_layer(const Packet& p) {
  if (p.service == ServiceType::kCache) return kCaching;
  switch (p.type) {
    case PacketType::kData:
      return p.service == ServiceType::kCode ? kEncoder : kOtherDc;
    case PacketType::kInCoded:
    case PacketType::kCrossCoded:
    case PacketType::kNack:
    case PacketType::kNackConfirm:
    case PacketType::kCoopResponse:
      return kRecovery;
    default:
      return kOtherDc;
  }
}

// Per-layer call counts and self time. Single-threaded by construction:
// traced rounds run their shards one after another.
struct LayerClocks {
  std::uint64_t calls[kLayerCount] = {};
  std::int64_t self_ns[kLayerCount] = {};
  // Time spent in handlers nested inside the current handler call, so a
  // layer's self time excludes any node delivery made synchronously from it.
  std::int64_t child_ns = 0;

  std::int64_t handler_ns() const {
    std::int64_t t = 0;
    for (std::int64_t v : self_ns) t += v;
    return t;
  }
};

class TimedNode final : public netsim::Node {
 public:
  TimedNode(netsim::Node& inner, bool datacenter, LayerClocks& clocks)
      : inner_(inner), datacenter_(datacenter), clocks_(clocks) {}
  TimedNode(const TimedNode&) = delete;
  TimedNode& operator=(const TimedNode&) = delete;

  NodeId id() const override { return inner_.id(); }

  void handle_packet(const PacketPtr& pkt) override {
    const Layer layer = datacenter_ ? dc_layer(*pkt) : kReceiver;
    const std::int64_t outer_child = clocks_.child_ns;
    clocks_.child_ns = 0;
    const std::int64_t t0 = now_ns();
    inner_.handle_packet(pkt);
    const std::int64_t total = now_ns() - t0;
    ++clocks_.calls[layer];
    clocks_.self_ns[layer] += total - clocks_.child_ns;
    clocks_.child_ns = outer_child + total;
  }

 private:
  netsim::Node& inner_;
  bool datacenter_;
  LayerClocks& clocks_;
};

std::string counters_json(const Books& b) {
  const services::EncoderStats& e = b.encoder;
  const services::RecoveryStatsDc& r = b.recovery;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"events\":%" PRIu64
                ",\"packets\":%" PRIu64
                ",\"digest\":\"%016" PRIx64 "\",\"data_packets\":%" PRIu64
                ",\"coded_sent\":%" PRIu64 ",\"batches\":%" PRIu64 ",\"nacks\":%" PRIu64
                ",\"coop_ops\":%" PRIu64 ",\"coop_success\":%" PRIu64
                ",\"batches_expired\":%" PRIu64,
                b.attempted, b.failed, b.events, b.packets, b.digest, e.data_packets, e.coded_sent,
                e.in_batches + e.cross_batches, r.nacks, r.coop_ops, r.coop_success,
                r.batches_expired);
  return buf;
}

// One traced round of a deployment workload on one thread.
void traced_deployment_round(Workload w, std::uint64_t seed) {
  // Decorators outlive the shards whose networks point at them: members are
  // destroyed in reverse order, shards first.
  struct Round {
    LayerClocks clocks;
    std::vector<std::unique_ptr<TimedNode>> nodes;
    Setup setup;
  } round;

  alloc_probe::reset();
  round.setup = build_shards(w, seed, 1);
  std::vector<exp::ScenarioShard*> shards;
  for (auto& s : round.setup.shards) {
    shards.push_back(s.get());
    netsim::Network& net = s->net();
    const auto attach = [&](netsim::Node& node, bool datacenter) {
      round.nodes.push_back(std::make_unique<TimedNode>(node, datacenter, round.clocks));
      net.attach(*round.nodes.back());
    };
    for (std::size_t j = 0; j < s->overlay().dc_count(); ++j) attach(s->overlay().dc(j), true);
    for (std::size_t i = 0; i < s->path_count(); ++i) attach(*s->path(i).receiver, false);
  }

  const Deployment d = deployment(w);
  std::vector<double> shard_s;
  const std::int64_t t0 = now_ns();
  for (exp::ScenarioShard* s : shards) {
    const std::int64_t ts = now_ns();
    s->run(d.duration);
    shard_s.push_back(static_cast<double>(now_ns() - ts) * 1e-9);
  }
  const std::int64_t run_ns = now_ns() - t0;
  const std::uint64_t allocs = alloc_probe::allocations();

  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
  for (exp::ScenarioShard* s : shards) {
    for (std::size_t i = 0; i < s->pool_count(); ++i) {
      reused += s->pool(i).reused();
      fresh += s->pool(i).fresh();
    }
  }
  const Books b = deployment_books(w, d, shards);

  double shard_sum = 0.0;
  for (double v : shard_s) shard_sum += v;
  const double shard_mean = shard_sum / static_cast<double>(shard_s.size());
  const double shard_max = *std::max_element(shard_s.begin(), shard_s.end());

  std::string layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (!layers.empty()) layers += ",";
    layers += json_string(kLayerNames[l]) + ":{\"calls\":" +
              std::to_string(round.clocks.calls[l]) + ",\"self_s\":" +
              json_number(static_cast<double>(round.clocks.self_ns[l]) * 1e-9) + "}";
  }
  std::printf(
      "{\"traced\":{%s,\"run_s\":%s,\"outside_s\":%s,\"shard_max_over_mean\":%s,"
      "\"allocs\":%" PRIu64 ",\"pool_reused\":%" PRIu64 ",\"pool_fresh\":%" PRIu64
      ",\"layers\":{%s},\"checks\":%s}}\n",
      counters_json(b).c_str(), json_number(static_cast<double>(run_ns) * 1e-9).c_str(),
      json_number(static_cast<double>(run_ns - round.clocks.handler_ns()) * 1e-9).c_str(),
      json_number(shard_max / shard_mean).c_str(), allocs, reused, fresh, layers.c_str(),
      checks_json(b.checks).c_str());
  std::fflush(stdout);
}

void traced_churn_round(std::uint64_t seed) {
  const workload::ChurnConfig cfg = churn_config(seed);
  alloc_probe::reset();
  const workload::ChurnResult r = workload::run_churn(cfg);
  const std::uint64_t allocs = alloc_probe::allocations();
  const Books b = churn_books(r, cfg);
  std::printf("{\"traced\":{%s,\"allocs\":%" PRIu64 ",\"checks\":%s}}\n",
              counters_json(b).c_str(), allocs, checks_json(b.checks).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;
  print_setups(args);

  if (args.workload == Workload::kChurnWeb) {
    traced_churn_round(args.seed);
  } else if (args.untraced) {
    // On one thread, like the traced rounds, so that their run times differ
    // only by the tracing (results do not depend on the thread count).
    const Books ref = run_workload(args.workload, args.seed, 1);
    std::printf("{\"reference\":{%s,\"run_s\":%s}}\n", counters_json(ref).c_str(),
                json_number(ref.run_s).c_str());
  } else {
    traced_deployment_round(args.workload, args.seed);
  }

  print_env(args.workload);
  return 0;
}
