// Scenario builder: turns a set of geo::PathSample wide-area paths into a
// running simulated J-QoS deployment -- senders, receivers, the cloud
// overlay with all four services installed, per-path Internet links with
// configurable loss processes, and per-path outcome collection.
//
// This is the machinery behind the Section 6.2 PlanetLab reproduction and
// the case studies; benches and tests configure it differently (service
// choice, loss mix, coding parameters) but share the wiring.
//
// The unit of execution is a ScenarioShard: one Simulator, one Network, one
// overlay, and a subset of the scenario's paths. Every random stream a shard
// consumes is derived (Rng::derive) from the scenario seed plus a stable
// identity -- the path's GLOBAL index, or an overlay link's site names --
// never from construction order. That is the shard determinism contract:
// a path behaves bit-identically whether its shard holds 1 path or all of
// them, which is what lets ShardedRunner (sharded_runner.h) split a 45-path
// sweep across every core and still merge results identical to the
// single-shard run. WanScenario below is the N=1 facade: the whole scenario
// in one shard, with the pre-sharding public API intact.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/packet_pool.h"
#include "endpoint/receiver.h"
#include "endpoint/sender.h"
#include "endpoint/session.h"
#include "geo/path_dataset.h"
#include "netsim/faults.h"
#include "netsim/loss_model.h"
#include "netsim/network.h"
#include "overlay/overlay_network.h"
#include "services/caching/caching_service.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "services/forwarding/forwarding_service.h"
#include "transport/cbr_app.h"

namespace jqos::exp {

// Per-packet delivery outcome codes recorded by sequence number.
enum class Outcome : std::uint8_t {
  kPending = 0,    // Sent (or never sent); no record yet.
  kDirect = 1,     // Delivered on the direct Internet path.
  kRecovered = 2,  // Lost on the direct path, recovered by J-QoS in time.
  kLost = 3,       // Lost and never recovered within the give-up window.
};

// Direct-path loss process configuration for one scenario. Defaults are
// calibrated to the Section 6.2.2 observations: loss rates up to ~0.9%,
// 40% of paths above 0.1%, and 1-3 s outages on ~45% of paths.
struct DirectPathParams {
  // Random (single-packet) losses.
  double bernoulli_loss = 0.0002;
  // Multi-packet bursts.
  bool enable_bursts = true;
  netsim::GilbertElliottParams gilbert{.p_good_to_bad = 0.0001,
                                       .p_bad_to_good = 0.25,
                                       .loss_in_good = 0.0,
                                       .loss_in_bad = 0.8};
  // Per-path severity multiplier (lognormal sigma): paths differ by orders
  // of magnitude in loss rate, as the measured PlanetLab paths do.
  double path_severity_sigma = 1.3;
  // Long outages (1-3 s) on a fraction of the paths.
  double outage_path_fraction = 0.45;
  netsim::OutageParams outage{.mean_interval = minutes(12), .min_len = sec(1),
                              .max_len = sec(3)};
  // Jitter of the direct path. Spikes are rare: a delayed packet that gets
  // recovered anyway is reclassified as delivered when the direct copy
  // lands, but spikes still cost NACK/recovery traffic.
  double jitter_sigma = 0.5;
  double jitter_scale_ms = 1.5;
  double spike_prob = 0.003;
};

struct WanScenarioParams {
  ServiceType service = ServiceType::kCode;
  services::CodingParams coding;
  services::RecoveryParams recovery;
  DirectPathParams direct;
  overlay::OverlayParams overlay;
  transport::CbrParams cbr;
  // Give-up window as a multiple of the path RTT (1.0 = the paper's "longer
  // than one RTT to recover counts as lost").
  double give_up_rtts = 1.0;
  // Probability a receiver answers a cooperative request late (straggler).
  double coop_slow_prob = 0.10;
  bool use_markov = true;
  // Per-packet delay Samples at the receivers (see ReceiverConfig); churn
  // soaks disable them to keep memory O(active sessions).
  bool record_delay_samples = true;
  // Receiver history depth (cooperative responses / in-stream decode). The
  // figure scenarios keep the generous default; churn workloads with short
  // sessions size it to the session length.
  std::size_t receiver_buffer_packets = 1024;
  std::uint64_t seed = 1;
  // Queue-disc configuration handed to the shard's Network; consulted only
  // by finite-bandwidth links (the default WAN topology is latency-only, so
  // the default config leaves every trace bit-identical).
  netsim::QdiscConfig qdisc;
  // Send on the direct Internet path (false = path switching: every data
  // packet rides the overlay via the forwarding service, Fig. 2(b)).
  bool send_direct = true;
  // Overlay-death detection at the receivers (see endpoint::FailoverParams).
  // When enabled, each path's receiver drives its sender's direct-path
  // override through a control channel modeled as an RTT/2 delay, and
  // transitions are recorded in PathRuntime::failover_events. Disabled by
  // default: zero events, zero extra draws, bit-identical traces.
  endpoint::FailoverParams failover;
  // Declarative fault schedule, armed before the workload starts. Symbolic
  // targets: "dc:<site>" (DataCenter crash/restart), "link:<A>><B>" (the
  // directed inter-DC link), "direct:<global_index>" (a path's direct
  // Internet link). Validate with validate_fault_plan() before running a
  // multi-shard scenario; every shard arms the same plan and skips targets
  // it does not own, so replicated entities fault at the same instant.
  netsim::FaultPlan faults;
};

// One overlay up/down transition observed by a path's receiver.
struct FailoverEvent {
  SimTime at = 0;
  bool up = false;
};

// Fault-layer counters aggregated over one shard (or merged over all of
// them). dc_crashes is keyed by site name so the merge can deduplicate
// DC replicas that crash in several shards at once.
struct FaultSummary {
  std::uint64_t link_fault_drops = 0;   // Packets dropped by down/degraded links.
  std::uint64_t dc_fault_dropped = 0;   // Packets black-holed by crashed DCs.
  std::map<std::string, std::uint64_t> dc_crashes;  // Site -> crash count.
  std::uint64_t failovers = 0;          // Receivers declaring the overlay dead.
  std::uint64_t reengages = 0;          // Receivers re-engaging the overlay.
  std::uint64_t probes_sent = 0;
  std::uint64_t nacks_suppressed = 0;
  std::uint64_t failover_direct_sent = 0;  // Direct copies forced by failover.
  std::uint64_t cloud_suppressed = 0;      // Cloud copies skipped while down.
  std::uint64_t flushes_suppressed = 0;    // Encoder flushes toward dead DCs.
  netsim::FaultInjectorStats injector;

  std::uint64_t total_dc_crashes() const;
  // Sums counters; dc_crashes merges by per-site max, because every shard
  // replica of a DC crashes identically under the shared plan.
  FaultSummary& operator+=(const FaultSummary& other);
};

// Rejects plans that name unknown targets or faults crossing a shard
// boundary: a "link:<A>><B>" target is only valid when some path has
// exactly {A, B} as its (DC1, DC2) pair, i.e. the link belongs to one
// interaction group. Throws std::invalid_argument with the offending
// target. Call before constructing a scenario/runner with a non-empty plan.
void validate_fault_plan(const netsim::FaultPlan& plan,
                         const std::vector<geo::PathSample>& paths);

// Everything belonging to one wide-area path in the running scenario.
struct PathRuntime {
  geo::PathSample path;
  std::string label;  // Region pair, e.g. "US-EU".
  // The path's index within the FULL scenario (not within its shard): the
  // stable identity all of its random streams are derived from, and the
  // position it occupies in ShardedRunner's merged view.
  std::size_t global_index = 0;
  double rtt_ms = 0.0;
  double give_up_rtts = 1.0;  // Success criterion (copied from params).
  FlowId flow = 0;
  std::unique_ptr<endpoint::Sender> sender;
  std::unique_ptr<endpoint::Receiver> receiver;
  std::unique_ptr<transport::CbrApp> app;
  overlay::DataCenter* dc1 = nullptr;
  overlay::DataCenter* dc2 = nullptr;

  // Collected results.
  std::vector<Outcome> outcome;      // Indexed by sequence number.
  Samples recovery_ms;               // Detection -> recovered delivery.
  Samples recovery_over_rtt;         // Same, as a fraction of path RTT.
  std::uint64_t delivered_direct = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  // Overlay up/down transitions, in occurrence order (failover enabled only).
  std::vector<FailoverEvent> failover_events;

  std::uint64_t direct_losses() const { return recovered + lost; }
  double recovery_success() const {
    const std::uint64_t l = direct_losses();
    return l == 0 ? 1.0 : static_cast<double>(recovered) / static_cast<double>(l);
  }
  double loss_rate() const {
    const std::uint64_t total = delivered_direct + direct_losses();
    return total == 0 ? 0.0
                      : static_cast<double>(direct_losses()) / static_cast<double>(total);
  }
};

// One path plus its stable global index, the form ScenarioShard consumes.
struct IndexedPath {
  std::size_t global_index = 0;
  geo::PathSample sample;
};

// One self-contained slice of a scenario: its own Simulator (explicit event
// queue backend -- worker threads never consult process-global defaults),
// Network, overlay (only the cloud sites its paths touch), service
// instances, packet pool, and derived random streams. Shards share NOTHING
// mutable; a shard may be built, run, and destroyed on any thread, but on
// one thread at a time (its pool has no lock).
class ScenarioShard {
 public:
  ScenarioShard(std::vector<IndexedPath> paths, const WanScenarioParams& params,
                netsim::EvqBackend backend);
  ~ScenarioShard();

  ScenarioShard(const ScenarioShard&) = delete;
  ScenarioShard& operator=(const ScenarioShard&) = delete;

  // Runs the CBR workload on every path for `duration`, then drains
  // in-flight recoveries.
  void run(SimDuration duration);

  // --- dynamic session churn (src/workload) ---
  // Each path's host pair is long-lived infrastructure; sessions are flows
  // churning over it. open_session registers a fresh flow across the
  // path's sender/receiver/DCs with the same service selection build_path
  // used; close_session notifies the path's ingress encoder (residual
  // queue flush + group shrink) and unwinds sender/receiver/registry
  // state. Callers observe deliveries by replacing the path receiver's
  // delivery handler (path(i).receiver->set_delivery_handler) with a
  // flow-dispatching one -- the default recorder assumes the single
  // build-time flow.
  FlowId open_session(std::size_t path_index);
  void close_session(std::size_t path_index, FlowId flow);
  // Flushes every encoder queue (end-of-run drain for churn workloads).
  void flush_encoders();

  endpoint::SessionManager& sessions() { return sessions_; }
  // Registered-flow count; a drained churn run must report 0 (leak check).
  std::size_t registered_flows() const { return registry_->size(); }

  std::size_t path_count() const { return paths_.size(); }
  PathRuntime& path(std::size_t i) { return *paths_.at(i); }
  const PathRuntime& path(std::size_t i) const { return *paths_.at(i); }

  netsim::Simulator& sim() { return sim_; }
  const netsim::Simulator& sim() const { return sim_; }
  netsim::Network& net() { return net_; }
  overlay::OverlayNetwork& overlay() { return *overlay_; }

  // Aggregate encoder/recovery statistics summed across this shard's DCs.
  services::EncoderStats encoder_totals() const;
  services::RecoveryStatsDc recovery_totals() const;

  // Fault-layer counters for this shard (links, DCs, endpoints, injector).
  FaultSummary fault_summary() const;
  netsim::FaultInjector& injector() { return injector_; }

  // --- packet pool (docs/MEMORY.md) ---
  // The shard's one PacketPool: every entity of the shard allocates from it,
  // and only the thread running the shard touches it. pool_count() is
  // always 1 and pool(0) is that pool. Pool state never feeds simulation
  // values, so results are bit-identical with pooling on or off.
  std::size_t pool_count() const { return 1; }
  PacketPool& pool(std::size_t i) {
    return i == 0 ? pool_ : throw std::out_of_range("ScenarioShard::pool: one pool per shard");
  }
  const PacketPool& pool(std::size_t i) const {
    return i == 0 ? pool_ : throw std::out_of_range("ScenarioShard::pool: one pool per shard");
  }

 private:
  void build_overlay(const std::vector<IndexedPath>& paths);
  void build_path(IndexedPath path);

  WanScenarioParams params_;
  // Declared before the simulator, the network and every entity, so it is
  // destroyed after all of them: every packet the shard holds (queued
  // events, link and service state, receiver buffers) has come home by the
  // time ~PacketPool checks that none is outstanding.
  PacketPool pool_;
  netsim::Simulator sim_;
  netsim::Network net_;
  netsim::FaultInjector injector_;
  Rng rng_;  // Overlay construction only; per-path streams are derived.
  services::FlowRegistryPtr registry_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::vector<std::shared_ptr<services::ForwardingService>> forwarders_;
  std::vector<std::shared_ptr<services::CodingEncoderService>> encoders_;
  std::vector<std::shared_ptr<services::RecoveryService>> recoverers_;
  endpoint::SessionManager sessions_;
  std::vector<std::unique_ptr<PathRuntime>> paths_;
  FlowId next_flow_ = 1;
};

// The N=1 facade: the whole scenario in one shard, with the original
// single-Simulator API. Tests and benches that want "a running deployment"
// use this; figure drivers that want every core use ShardedRunner.
class WanScenario {
 public:
  WanScenario(std::vector<geo::PathSample> paths, const WanScenarioParams& params);
  ~WanScenario();

  WanScenario(const WanScenario&) = delete;
  WanScenario& operator=(const WanScenario&) = delete;

  void run(SimDuration duration) { shard_->run(duration); }

  std::size_t path_count() const { return shard_->path_count(); }
  PathRuntime& path(std::size_t i) { return shard_->path(i); }
  const PathRuntime& path(std::size_t i) const { return shard_->path(i); }

  netsim::Simulator& sim() { return shard_->sim(); }
  netsim::Network& net() { return shard_->net(); }
  overlay::OverlayNetwork& overlay() { return shard_->overlay(); }

  // Aggregate encoder/recovery statistics summed across DCs.
  services::EncoderStats encoder_totals() const { return shard_->encoder_totals(); }
  services::RecoveryStatsDc recovery_totals() const { return shard_->recovery_totals(); }
  FaultSummary fault_summary() const { return shard_->fault_summary(); }

 private:
  std::unique_ptr<ScenarioShard> shard_;
};

}  // namespace jqos::exp
