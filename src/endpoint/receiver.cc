#include "endpoint/receiver.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::endpoint {

Receiver::Receiver(netsim::Network& net, const ReceiverConfig& config, DeliverFn on_delivery)
    : net_(net),
      node_id_(net.allocate_id()),
      config_(config),
      on_delivery_(std::move(on_delivery)),
      // The seed is used exactly as given: node ids are allocation-order
      // artifacts, and mixing them in would make the straggler stream depend
      // on how many nodes happen to precede this receiver in its Network --
      // breaking the sharded runner's composition-invariance. Callers that
      // want uncorrelated receivers pass distinct seeds (the scenario layer
      // derives one per path via Rng::derive).
      rng_(config.rng_seed) {
  net_.attach(*this);
}

void Receiver::expect_flow(FlowId flow) {
  auto [it, inserted] = flows_.try_emplace(flow, MarkovDetector(config_.markov, config_.rtt_estimate));
  if (inserted && config_.dc2 != kInvalidNode) {
    // "Initially, the receiver starts off with the long timeout value"
    // (Section 3.4): the flow is expected, so even the very first packet
    // (e.g. a SYN-ACK) is protected by the timer.
    arm_timer(flow, it->second, it->second.detector.long_timeout());
  }
}

void Receiver::forget_flow(FlowId flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  if (fs.timer_armed) {
    net_.sim().cancel(fs.timer);
    fs.timer_armed = false;
  }
  // Bump the generation so an already-dispatched timer closure that raced
  // the cancel finds a stale generation even if the flow id is reused.
  ++fs.timer_gen;
  flows_.erase(it);
}

void Receiver::set_rtt_estimate(SimDuration rtt) {
  config_.rtt_estimate = rtt;
  for (auto& [flow, fs] : flows_) fs.detector.update_rtt(rtt);
}

void Receiver::handle_packet(const PacketPtr& pkt) {
  if (config_.failover.enabled) {
    // Any DC2-originated packet is proof of overlay life: recoveries,
    // in-stream coded packets, cooperative solicitations, NackChecks. For
    // path-switching receivers, data packets are overlay traffic too --
    // but only while up; once failed over, kData rides the direct path and
    // says nothing about the overlay.
    switch (pkt->type) {
      case PacketType::kRecovered:
      case PacketType::kInCoded:
      case PacketType::kCoopRequest:
      case PacketType::kNackCheck:
        note_overlay_evidence();
        break;
      case PacketType::kData:
        if (config_.failover.overlay_carries_data && overlay_up_) {
          note_overlay_evidence();
        }
        break;
      default:
        break;
    }
  }
  switch (pkt->type) {
    case PacketType::kData:
      on_data(pkt, /*recovered=*/false);
      return;
    case PacketType::kRecovered:
      on_data(pkt, /*recovered=*/true);
      return;
    case PacketType::kInCoded:
      on_in_coded(pkt);
      return;
    case PacketType::kCoopRequest:
      on_coop_request(pkt);
      return;
    case PacketType::kNackCheck:
      on_nack_check(pkt);
      return;
    default:
      return;  // Cross-coded packets etc. are DC-side only.
  }
}

void Receiver::on_data(const PacketPtr& pkt, bool recovered) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) return;  // Not a flow of ours.
  FlowState& fs = it->second;
  const SimTime now = net_.sim().now();
  const SeqNo seq = pkt->seq;

  const SeqNo horizon_before = fs.evidence_horizon;
  if (seq >= fs.evidence_horizon) fs.evidence_horizon = seq + 1;
  auto miss = fs.missing.find(seq);
  if (miss != fs.missing.end()) {
    // Fills a known hole: either the J-QoS recovery or a straggler direct
    // arrival that outlived the gap detection.
    const SimTime detected = miss->second.detected_at;
    fs.missing.erase(miss);
    // At the contiguity edge, advance directly: inserting into
    // arrived_ahead only for advance_contiguity to erase it again would be
    // a map-node allocation per in-order packet.
    if (seq == fs.next_expected) {
      ++fs.next_expected;
    } else {
      fs.arrived_ahead[seq] = recovered;
    }
    deliver(pkt->flow, seq, pkt, recovered, detected);
    remember(fs, pkt);
    advance_contiguity(fs, pkt->flow);
  } else if (seq < fs.next_expected || fs.arrived_ahead.count(seq) != 0) {
    // Already delivered (e.g. both the direct copy and the recovered copy
    // arrived, or a multicast duplicate).
    ++stats_.duplicates;
    if (!recovered && on_delivery_) {
      // Tell the upper layer the direct copy did arrive eventually: a
      // recovery that raced a delay spike was not a real path loss.
      DeliveryRecord rec;
      rec.flow = pkt->flow;
      rec.seq = seq;
      rec.sent_at = pkt->sent_at;
      rec.delivered_at = now;
      rec.late_direct = true;
      on_delivery_(rec, pkt);
    }
    return;
  } else {
    if (seq > fs.next_expected) {
      // Gap: everything in [next_expected, seq) is missing as of now.
      note_missing(fs, pkt->flow, fs.next_expected, horizon_before, seq);
      fs.arrived_ahead[seq] = recovered;
    } else {
      // In-order fast path (see above): no arrived_ahead churn.
      ++fs.next_expected;
    }
    deliver(pkt->flow, seq, pkt, recovered, 0);
    remember(fs, pkt);
    advance_contiguity(fs, pkt->flow);
  }

  // Direct-path arrivals feed the Markov detector and (re)arm the timer;
  // recovered packets say nothing about the direct path, but they do keep
  // the flow (and its timer) alive so outage recovery continues.
  fs.last_activity = now;
  if (config_.failover.enabled && !overlay_up_ && !probe_armed_) {
    // Traffic-driven probe restart: the probe chain stops when all flows go
    // idle (so the event queue can drain); fresh arrivals revive it.
    arm_probe();
  }
  if (!recovered) {
    fs.last_arrival = now;
    const SimDuration timeout =
        config_.use_markov ? fs.detector.on_arrival(now) : config_.single_timeout;
    arm_timer(pkt->flow, fs, timeout);
  } else if (!fs.timer_armed) {
    arm_timer(pkt->flow, fs,
              config_.use_markov ? fs.detector.current_timeout() : config_.single_timeout);
  }
}

void Receiver::note_missing(FlowState& fs, FlowId flow, SeqNo from, SeqNo horizon,
                            SeqNo to_exclusive) {
  // Every sequence number in [next_expected, evidence_horizon) sits in
  // `missing` or in `arrived_ahead`, so rescanning below the horizon would
  // only skip tracked entries; each sequence number is examined once per
  // flow instead of once per arrival while a hole stays open.
  const SeqNo start = std::max(from, horizon);
#ifndef NDEBUG
  for (SeqNo s = from; s < start; ++s) {
    assert((fs.missing.count(s) != 0 || fs.arrived_ahead.count(s) != 0) &&
           "Receiver: untracked sequence number below the evidence horizon");
  }
#endif
  const SimTime now = net_.sim().now();
  gap_scratch_.clear();
  for (SeqNo s = start; s < to_exclusive; ++s) {
    if (fs.missing.count(s) != 0 || fs.arrived_ahead.count(s) != 0) continue;
    fs.missing[s] = MissingInfo{now, now, 1};
    gap_scratch_.push_back(s);
    ++stats_.losses_detected;
  }
  if (!gap_scratch_.empty()) send_nack(flow, fs, gap_scratch_, /*tail=*/false);
}

void Receiver::send_nack(FlowId flow, FlowState& fs, const std::vector<SeqNo>& missing,
                         bool tail, bool probe) {
  if (config_.dc2 == kInvalidNode) return;
  if (!overlay_up_ && !probe) {
    // Overlay declared dead: regular NACKs would just feed a black hole.
    // The probe path (backed-off, one flow) is the only NACK traffic.
    ++stats_.nacks_suppressed;
    return;
  }
  nack_scratch_.tail = tail;
  // Tail probes ask DC2 to scan forward from the frontier of what this
  // receiver has evidence for; everything below it is tracked explicitly.
  nack_scratch_.expected = tail ? fs.evidence_horizon : fs.next_expected;
  nack_scratch_.missing.assign(missing.begin(), missing.end());
  // Probes always address the coding service: even when the flow's recovery
  // runs elsewhere (or nowhere -- path switching), a live RecoveryService
  // answers an uncovered-key NACK with a kNackCheck, which is evidence.
  auto nack = make_packet(pool_, PacketType::kNack,
                          probe ? ServiceType::kCode : config_.recovery_service,
                          flow, missing.empty() ? fs.next_expected : missing.front(),
                          node_id_, config_.dc2, net_.sim().now());
  nack_scratch_.serialize_into(nack->payload);
  ++stats_.nacks_sent;
  if (tail) ++stats_.tail_nacks_sent;
  net_.send(node_id_, nack);
  if (config_.failover.enabled && !probe && overlay_up_) {
    ++unanswered_nacks_;
    // First NACK ever starts the expectation clock: from here on the
    // overlay owes us a reply, so prolonged silence becomes meaningful
    // even if DC2 never showed a sign of life.
    if (last_overlay_signal_ < 0) last_overlay_signal_ = net_.sim().now();
    const bool silent = net_.sim().now() - last_overlay_signal_ >=
                        config_.failover.nack_silence;
    if (silent && unanswered_nacks_ >= config_.failover.max_unanswered_nacks) {
      declare_overlay_down();
    }
  }
}

void Receiver::deliver(FlowId flow, SeqNo seq, const PacketPtr& pkt, bool recovered,
                       SimTime detected_at) {
  const SimTime now = net_.sim().now();
  DeliveryRecord rec;
  rec.flow = flow;
  rec.seq = seq;
  rec.sent_at = pkt->sent_at;
  rec.delivered_at = now;
  rec.recovered = recovered;
  rec.detected_missing_at = detected_at;
  if (recovered) {
    ++stats_.delivered_recovered;
    if (detected_at > 0 && config_.record_delay_samples) {
      recovery_delay_ms_.add(to_ms(now - detected_at));
    }
  } else {
    ++stats_.delivered_direct;
    if (pkt->sent_at > 0 && config_.record_delay_samples) {
      direct_delay_ms_.add(to_ms(now - pkt->sent_at));
    }
  }
  if (on_delivery_) on_delivery_(rec, pkt);
}

void Receiver::advance_contiguity(FlowState& fs, FlowId flow) {
  (void)flow;
  while (true) {
    auto it = fs.arrived_ahead.find(fs.next_expected);
    if (it == fs.arrived_ahead.end()) break;
    fs.arrived_ahead.erase(it);
    ++fs.next_expected;
  }
}

void Receiver::remember(FlowState& fs, const PacketPtr& pkt) {
  // A deferred cooperative request may have been waiting for this packet.
  auto dit = fs.deferred_coop.find(pkt->seq);
  if (dit != fs.deferred_coop.end()) {
    const PacketPtr request = dit->second.first;
    const SimTime deadline = dit->second.second;
    fs.deferred_coop.erase(dit);
    if (net_.sim().now() <= deadline) {
      ++stats_.coop_deferred;
      auto resp = make_packet(pool_, PacketType::kCoopResponse, ServiceType::kCode,
                              request->flow, request->seq, node_id_, request->src,
                              net_.sim().now());
      resp->meta = request->meta;
      resp->payload = pkt->payload;
      ++stats_.coop_responses_sent;
      net_.send(node_id_, resp);
    }
  }
  // Opportunistic pruning of expired deferred requests.
  if (fs.deferred_coop.size() > 64) {
    for (auto itd = fs.deferred_coop.begin(); itd != fs.deferred_coop.end();) {
      if (itd->second.second < net_.sim().now()) {
        ++stats_.coop_misses;
        itd = fs.deferred_coop.erase(itd);
      } else {
        ++itd;
      }
    }
  }
  if (fs.buffer.count(pkt->seq) == 0) {
    if (config_.buffer_packets > 0 && fs.buffer_order.size() >= config_.buffer_packets) {
      // At capacity: recycle the evicted entry's map node (extract +
      // reinsert) so steady-state history churn never touches the
      // allocator. The FIFO ring keeps eviction order.
      auto node = fs.buffer.extract(fs.buffer_order.front());
      fs.buffer_order.pop_front();
      node.key() = pkt->seq;
      node.mapped() = pkt;
      fs.buffer.insert(std::move(node));
    } else {
      fs.buffer.emplace(pkt->seq, pkt);
    }
    fs.buffer_order.push_back(pkt->seq);
  }
}

void Receiver::on_in_coded(const PacketPtr& pkt) {
  if (!pkt->meta || pkt->meta->covered.empty()) return;
  const FlowId flow = pkt->meta->covered.front().flow;
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  const std::uint32_t batch_id = pkt->meta->batch_id;
  auto [bit, inserted] = fs.in_coded.try_emplace(batch_id);
  bit->second.push_back(pkt);
  if (inserted) {
    fs.in_coded_order.push_back(batch_id);
    while (fs.in_coded_order.size() > 64) {
      fs.in_coded.erase(fs.in_coded_order.front());
      fs.in_coded_order.pop_front();
    }
  }
  try_self_decode(flow, fs, batch_id);
}

void Receiver::try_self_decode(FlowId flow, FlowState& fs, std::uint32_t batch_id) {
  auto bit = fs.in_coded.find(batch_id);
  if (bit == fs.in_coded.end() || bit->second.empty()) return;
  const CodedMeta& meta = *bit->second.front()->meta;

  present_scratch_.clear();
  wanted_scratch_.clear();
  for (std::size_t pos = 0; pos < meta.covered.size(); ++pos) {
    const PacketKey& key = meta.covered[pos];
    auto buf = fs.buffer.find(key.seq);
    if (buf != fs.buffer.end()) {
      present_scratch_.emplace_back(pos, std::span<const std::uint8_t>(buf->second->payload));
    } else if (fs.missing.count(key.seq) != 0) {
      wanted_scratch_.emplace_back(pos, key);
    }
  }
  if (wanted_scratch_.empty()) return;  // Nothing we still need from this batch.

  auto recovered = fec::decode_batch(decode_arena_, meta, present_scratch_, bit->second);
  if (!recovered) return;  // Not enough symbols yet; keep the coded packets.

  for (auto& rp : *recovered) {
    auto miss = fs.missing.find(rp.key.seq);
    if (miss == fs.missing.end()) continue;
    const SimTime detected = miss->second.detected_at;
    fs.missing.erase(miss);
    ++stats_.self_decoded;
    auto packet = alloc_packet(pool_);
    packet->type = PacketType::kRecovered;
    packet->flow = rp.key.flow;
    packet->seq = rp.key.seq;
    packet->payload = std::move(rp.payload);
    if (rp.key.seq >= fs.next_expected) fs.arrived_ahead[rp.key.seq] = true;
    deliver(flow, rp.key.seq, packet, /*recovered=*/true, detected);
    remember(fs, packet);
  }
  advance_contiguity(fs, flow);
  fs.in_coded.erase(batch_id);
  std::erase(fs.in_coded_order, batch_id);
}

void Receiver::on_coop_request(const PacketPtr& pkt) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) {
    ++stats_.coop_misses;
    return;
  }
  FlowState& fs = it->second;
  auto buf = fs.buffer.find(pkt->seq);
  if (buf == fs.buffer.end()) {
    if (pkt->seq >= fs.evidence_horizon) {
      // Not lost -- just not here yet (the requester's path is faster).
      // Hold the request and answer on arrival.
      fs.deferred_coop[pkt->seq] = {pkt, net_.sim().now() + config_.coop_defer_window};
      return;
    }
    ++stats_.coop_misses;  // We lost it too; the coded packets must cover.
    return;
  }
  auto resp = make_packet(pool_, PacketType::kCoopResponse, ServiceType::kCode,
                          pkt->flow, pkt->seq, node_id_, pkt->src, net_.sim().now());
  resp->meta = pkt->meta;  // Echo the batch id back.
  resp->payload = buf->second->payload;
  ++stats_.coop_responses_sent;
  if (config_.coop_slow_prob > 0.0 && rng_.bernoulli(config_.coop_slow_prob)) {
    // Straggler: the host is busy; the response leaves late.
    const SimDuration delay =
        rng_.uniform_int(config_.coop_slow_min, config_.coop_slow_max);
    net_.sim().after(delay, [this, resp] { net_.send(node_id_, resp); });
    return;
  }
  net_.send(node_id_, resp);
}

void Receiver::on_nack_check(const PacketPtr& pkt) {
  auto it = flows_.find(pkt->flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  if (!is_missing_or_future(fs, pkt->seq)) return;  // Spurious; stay silent.
  nack_scratch_.tail = false;
  nack_scratch_.expected = fs.next_expected;
  nack_scratch_.missing.assign(1, pkt->seq);
  auto confirm = make_packet(pool_, PacketType::kNackConfirm, config_.recovery_service,
                             pkt->flow, pkt->seq, node_id_, pkt->src, net_.sim().now());
  nack_scratch_.serialize_into(confirm->payload);
  ++stats_.nack_confirms_sent;
  net_.send(node_id_, confirm);
}

bool Receiver::is_missing_or_future(const FlowState& fs, SeqNo seq) const {
  if (fs.missing.count(seq) != 0) return true;
  return seq >= fs.next_expected && fs.arrived_ahead.count(seq) == 0;
}

SimDuration Receiver::give_up_span(const FlowState& fs) const {
  (void)fs;
  return config_.recovery_give_up > 0 ? config_.recovery_give_up : config_.rtt_estimate;
}

void Receiver::give_up_stale(FlowId flow, FlowState& fs) {
  const SimTime now = net_.sim().now();
  const SimDuration span = give_up_span(fs);
  for (auto it = fs.missing.begin(); it != fs.missing.end();) {
    if (now - it->second.detected_at >= span) {
      if (it->first >= fs.evidence_horizon) {
        // A timer suspicion with no later delivery confirming the packet
        // ever existed (the stream simply paused): drop silently. The
        // sequence number stays claimable -- if the stream resumes with it,
        // it must be delivered normally, not treated as a duplicate.
        ++stats_.suspected_tail_dropped;
        it = fs.missing.erase(it);
        continue;
      }
      ++stats_.losses_given_up;
      DeliveryRecord rec;
      rec.flow = flow;
      rec.seq = it->first;
      rec.delivered_at = now;
      rec.lost = true;
      rec.detected_missing_at = it->second.detected_at;
      if (on_delivery_) on_delivery_(rec, nullptr);
      if (it->first >= fs.next_expected) fs.arrived_ahead[it->first] = false;
      it = fs.missing.erase(it);
    } else {
      ++it;
    }
  }
  advance_contiguity(fs, flow);
}

void Receiver::arm_timer(FlowId flow, FlowState& fs, SimDuration timeout) {
  if (fs.timer_armed) {
    net_.sim().cancel(fs.timer);
    fs.timer_armed = false;
  }
  const std::uint64_t gen = ++fs.timer_gen;
  fs.timer_armed = true;
  fs.timer = net_.sim().after(timeout, [this, flow, gen] { on_timer(flow, gen); });
}

void Receiver::on_timer(FlowId flow, std::uint64_t gen) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowState& fs = it->second;
  if (!fs.timer_armed || fs.timer_gen != gen) return;
  fs.timer_armed = false;

  const SimTime now = net_.sim().now();
  if (config_.failover.enabled && config_.failover.overlay_carries_data && overlay_up_ &&
      last_overlay_signal_ >= 0 &&
      now - last_overlay_signal_ >= config_.failover.data_silence) {
    // All data rides the overlay and NOTHING -- no data on any flow, no DC2
    // control traffic -- has been heard for the silence window, yet this
    // flow's timer is still live (there is demand): the overlay is gone.
    declare_overlay_down();
  }
  const bool was_short =
      config_.use_markov && fs.detector.state() == MarkovDetector::State::kShort;
  const SimDuration next_timeout =
      config_.use_markov ? fs.detector.on_timeout() : config_.single_timeout;

  // A SHORT-state expiry means the stream went quiet mid-burst: the next
  // expected packet is presumed lost (tail loss). The DC-side NackCheck
  // handshake guards against the burst simply having ended. During an
  // outage the direct path is silent but recoveries keep arriving
  // (last_activity > last_arrival): keep probing so cooperative recovery
  // is applied repeatedly, wave after wave (Section 4.4).
  const bool outage_mode = fs.last_arrival >= 0 && fs.last_activity > fs.last_arrival &&
                           now - fs.last_activity < config_.idle_stop;
  // A registered flow that has never delivered anything and timed out: the
  // opening packet itself may be lost (e.g. a SYN-ACK, Section 6.4).
  const bool nothing_yet = fs.last_arrival < 0 && fs.evidence_horizon == 0;
  if (was_short || !config_.use_markov || outage_mode || nothing_yet) {
    if (fs.missing.count(fs.next_expected) == 0 &&
        fs.arrived_ahead.count(fs.next_expected) == 0) {
      fs.missing[fs.next_expected] = MissingInfo{now, now, 1};
      ++stats_.losses_detected;
      send_nack(flow, fs, {fs.next_expected}, /*tail=*/true);
    } else if (outage_mode) {
      // The hole at next_expected is already tracked, but the stream is
      // being carried by recovery alone: keep probing past the evidence
      // frontier so the next wave of cooperative recovery starts.
      send_nack(flow, fs, {}, /*tail=*/true);
    } else {
      ++stats_.spurious_timeouts;
    }
  }

  // Re-NACK holes whose last attempt is stale (lost NACK or lost recovery).
  stale_scratch_.clear();
  for (auto& [seq, info] : fs.missing) {
    if (now - info.last_nack_at >= config_.renack_interval) {
      info.last_nack_at = now;
      ++info.nack_count;
      stale_scratch_.push_back(seq);
    }
  }
  if (!stale_scratch_.empty()) send_nack(flow, fs, stale_scratch_, /*tail=*/false);

  give_up_stale(flow, fs);

  // Keep the timer running while the flow is live or holes remain. Flows
  // being carried by recovery alone (outages) stay live via last_activity.
  const bool active =
      (fs.last_activity >= 0 && now - fs.last_activity < config_.idle_stop) ||
      !fs.missing.empty();
  if (active) arm_timer(flow, fs, next_timeout);
}

void Receiver::note_overlay_evidence() {
  last_overlay_signal_ = net_.sim().now();
  unanswered_nacks_ = 0;
  if (!overlay_up_) declare_overlay_up();
}

void Receiver::declare_overlay_down() {
  if (!overlay_up_) return;
  overlay_up_ = false;
  ++stats_.failovers;
  unanswered_nacks_ = 0;
  probe_backoff_ = 0;
  arm_probe();
  if (on_overlay_) on_overlay_(false, net_.sim().now());
}

void Receiver::declare_overlay_up() {
  if (overlay_up_) return;
  overlay_up_ = true;
  ++stats_.reengages;
  if (probe_armed_) {
    net_.sim().cancel(probe_timer_);
    probe_armed_ = false;
  }
  ++probe_gen_;  // Invalidate any closure that raced the cancel.
  probe_backoff_ = 0;
  if (on_overlay_) on_overlay_(true, net_.sim().now());
}

void Receiver::arm_probe() {
  probe_backoff_ = probe_backoff_ == 0
                       ? config_.failover.probe_base
                       : std::min(probe_backoff_ * 2, config_.failover.probe_cap);
  const std::uint64_t gen = ++probe_gen_;
  probe_armed_ = true;
  probe_timer_ = net_.sim().after(probe_backoff_, [this, gen] { on_probe(gen); });
}

void Receiver::on_probe(std::uint64_t gen) {
  if (!probe_armed_ || probe_gen_ != gen) return;
  probe_armed_ = false;
  if (overlay_up_) return;
  send_probe();
  // Re-arm only while some flow is live: once the workload drains the probe
  // chain must stop, or Simulator::run() would never see an empty queue.
  if (any_active_flow()) arm_probe();
}

void Receiver::send_probe() {
  if (config_.dc2 == kInvalidNode) return;
  // Probe on the lowest live flow id (a stable identity across runs and
  // thread counts, unlike unordered_map iteration order).
  FlowState* fs = nullptr;
  FlowId flow = 0;
  for (auto& [id, state] : flows_) {
    if (fs == nullptr || id < flow) {
      fs = &state;
      flow = id;
    }
  }
  if (fs == nullptr) return;
  ++stats_.probes_sent;
  send_nack(flow, *fs, {fs->next_expected}, /*tail=*/false, /*probe=*/true);
}

bool Receiver::any_active_flow() const {
  const SimTime now = net_.sim().now();
  for (const auto& [flow, fs] : flows_) {
    if (fs.last_activity >= 0 && now - fs.last_activity < config_.idle_stop) return true;
  }
  return false;
}

}  // namespace jqos::endpoint
