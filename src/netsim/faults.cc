#include "netsim/faults.h"

#include <cassert>
#include <utility>

#include "common/rng.h"

namespace jqos::netsim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkBrownout:
      return "link_brownout";
    case FaultKind::kNodeCrash:
      return "node_crash";
  }
  return "?";
}

FaultPlan& FaultPlan::link_down(std::string target, SimTime start, SimDuration duration) {
  specs_.push_back({FaultKind::kLinkDown, std::move(target), start, duration, {}});
  return *this;
}

FaultPlan& FaultPlan::link_brownout(std::string target, SimTime start, SimDuration duration,
                                    BrownoutProfile profile) {
  specs_.push_back({FaultKind::kLinkBrownout, std::move(target), start, duration, profile});
  return *this;
}

FaultPlan& FaultPlan::node_crash(std::string target, SimTime start, SimDuration duration) {
  specs_.push_back({FaultKind::kNodeCrash, std::move(target), start, duration, {}});
  return *this;
}

FaultPlan& FaultPlan::link_flaps(std::string target, const OutageParams& params,
                                 SimTime horizon) {
  // The stream is a pure function of (plan seed, target name): the same plan
  // produces the same flap schedule no matter which shard owns the link.
  const auto windows = outage_windows(params, Rng::derived(seed_, target), horizon);
  for (const OutageWindow& w : windows) {
    specs_.push_back({FaultKind::kLinkDown, target, w.start, w.end - w.start, {}});
  }
  return *this;
}

std::vector<OutageWindow> FaultPlan::windows() const {
  std::vector<OutageWindow> out;
  out.reserve(specs_.size());
  for (const FaultSpec& s : specs_) out.push_back({s.start, s.start + s.duration});
  return out;
}

std::vector<OutageWindow> FaultPlan::windows_for(std::string_view target) const {
  std::vector<OutageWindow> out;
  for (const FaultSpec& s : specs_) {
    if (s.target == target) out.push_back({s.start, s.start + s.duration});
  }
  return out;
}

void FaultInjector::bind_link(const std::string& target, Link* link) {
  assert(link != nullptr);
  links_[target].push_back(link);
}

void FaultInjector::bind_node(const std::string& target, FaultableNode* node) {
  assert(node != nullptr);
  nodes_[target] = node;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.specs()) arm_spec(spec, plan.seed());
}

void FaultInjector::arm_spec(const FaultSpec& spec, std::uint64_t plan_seed) {
  assert(spec.start >= sim_.now() && "fault plans must be armed before run()");
  assert(spec.duration > 0 && "zero-length faults are no-ops; drop them from the plan");
  const SimTime clear_at = spec.start + spec.duration;

  if (spec.kind == FaultKind::kNodeCrash) {
    auto it = nodes_.find(spec.target);
    if (it == nodes_.end()) {
      ++stats_.skipped_unbound;
      return;
    }
    FaultableNode* node = it->second;
    sim_.at(spec.start, [node] { node->fault_crash(); });
    sim_.at(clear_at, [node] { node->fault_restart(); });
    ++stats_.node_crashes;
    return;
  }

  auto it = links_.find(spec.target);
  if (it == links_.end()) {
    ++stats_.skipped_unbound;
    return;
  }
  // Copy the binding list into the closures: cheap (a few pointers), and the
  // events outlive any later rebinding.
  const std::vector<Link*> targets = it->second;

  if (spec.kind == FaultKind::kLinkDown) {
    sim_.at(spec.start, [targets] {
      for (Link* l : targets) l->set_fault_down(true);
    });
    sim_.at(clear_at, [targets] {
      for (Link* l : targets) l->set_fault_down(false);
    });
    ++stats_.link_downs;
    return;
  }

  // Brownout: each bound link gets its own degradation stream, derived from
  // (plan seed, target, window start, bind index) -- all stable identities,
  // so the extra-loss coin flips are identical however the shards are laid
  // out. Bind order is scenario-controlled and deterministic.
  const std::uint64_t window_seed =
      Rng::derive(Rng::derive(plan_seed, spec.target), static_cast<std::uint64_t>(spec.start));
  const BrownoutProfile profile = spec.brownout;
  sim_.at(spec.start, [targets, profile, window_seed] {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      targets[i]->set_degraded(profile.extra_loss, profile.extra_latency,
                               Rng::derived(window_seed, static_cast<std::uint64_t>(i)));
    }
  });
  sim_.at(clear_at, [targets] {
    for (Link* l : targets) l->clear_degraded();
  });
  ++stats_.brownouts;
}

}  // namespace jqos::netsim
