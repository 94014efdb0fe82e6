#include "services/coding/recovery_dc.h"

#include <algorithm>

#include "common/logging.h"
#include "fec/coded_batch.h"

namespace jqos::services {

RecoveryService::RecoveryService(overlay::DataCenter& dc, const RecoveryParams& params,
                                 FlowRegistryPtr registry)
    : dc_(dc), params_(params), registry_(std::move(registry)) {}

bool RecoveryService::handle(overlay::DataCenter& dc, const PacketPtr& pkt) {
  (void)dc;
  switch (pkt->type) {
    case PacketType::kInCoded:
    case PacketType::kCrossCoded:
      if (pkt->service != ServiceType::kCode) return false;
      on_coded(pkt);
      return true;
    case PacketType::kNack:
      if (pkt->service != ServiceType::kCode) return false;
      on_nack(pkt, /*confirm=*/false);
      return true;
    case PacketType::kNackConfirm:
      if (pkt->service != ServiceType::kCode) return false;
      ++stats_.nack_confirms;
      on_nack(pkt, /*confirm=*/true);
      return true;
    case PacketType::kCoopResponse:
      if (pkt->service != ServiceType::kCode) return false;
      on_coop_response(pkt);
      return true;
    default:
      return false;
  }
}

void RecoveryService::on_coded(const PacketPtr& pkt) {
  if (!pkt->meta) return;
  const std::uint32_t batch_id = pkt->meta->batch_id;
  BatchState& batch = batches_[batch_id];
  if (batch.coded.empty()) {
    batch.meta = *pkt->meta;
    batch.first_seen = dc_.now();
    batch.is_cross = pkt->type == PacketType::kCrossCoded;
    ++stats_.batches_stored;
    for (const PacketKey& key : batch.meta.covered) {
      key_index_[key].push_back(batch_id);
    }
  }
  batch.coded.push_back(pkt);
  arm_sweep();

  // A coded packet may unblock recoveries waiting on it. The pending NACK
  // predates this coverage, so re-verify with the receiver first: at burst
  // or session boundaries the "missing" packet may be the stream resuming,
  // and recovering it would race the direct copy (Section 3.4's guard).
  for (const PacketKey& key : pkt->meta->covered) {
    auto it = pending_.find(key);
    if (it != pending_.end() && it->second.expires_at > dc_.now()) {
      ++stats_.recheck_probes;
      ++stats_.nack_checks_sent;
      auto check = make_packet(dc_.pool(), PacketType::kNackCheck, ServiceType::kCode,
                               key.flow, key.seq, dc_.id(), it->second.receiver,
                               dc_.now());
      dc_.send(check);
    }
  }
  auto op_it = ops_.find(batch_id);
  if (op_it != ops_.end()) maybe_finish_op(op_it->second);
}

void RecoveryService::on_nack(const PacketPtr& pkt, bool confirm) {
  if (!confirm) ++stats_.nacks;
  if (!NackInfo::parse_into(pkt->payload, nack_scratch_)) return;
  const NackInfo& info = nack_scratch_;
  const NodeId receiver = pkt->src;

  std::vector<PacketKey>& keys = keys_scratch_;
  keys.clear();
  keys.reserve(info.missing.size());
  for (SeqNo s : info.missing) keys.push_back(PacketKey{pkt->flow, s});

  // Tail NACK: the receiver saw nothing after `expected`; recover every
  // covered packet of this flow from `expected` onward. Bursty losses favor
  // cooperative recovery, so prefer_coop is set below for multi-loss NACKs.
  if (info.tail) {
    // Recover every covered sequence number from `expected` onward. Holes
    // in coverage (packets the encoder evicted, batches still in flight)
    // are skipped rather than ending the run; a long uncovered stretch
    // marks the true frontier of what DC1 has seen.
    std::size_t batches_used = 0;
    std::size_t uncovered_run = 0;
    for (SeqNo s = info.expected;
         batches_used < params_.max_tail_batches && uncovered_run < 64; ++s) {
      const PacketKey key{pkt->flow, s};
      auto kit = key_index_.find(key);
      if (kit == key_index_.end()) {
        ++uncovered_run;
        continue;
      }
      // Skip batches so fresh their direct copies may still be in flight.
      bool old_enough = false;
      for (std::uint32_t id : kit->second) {
        auto bit = batches_.find(id);
        if (bit != batches_.end() && batch_fresh(bit->second) &&
            dc_.now() - bit->second.first_seen >= params_.tail_min_batch_age) {
          old_enough = true;
          break;
        }
      }
      if (!old_enough) {
        ++uncovered_run;
        continue;
      }
      uncovered_run = 0;
      keys.push_back(key);
      ++batches_used;
    }
  }

  // Heuristic from Section 4.2: in-stream protects random (single) losses;
  // two or more missing keys in one NACK imply a burst, where the in-stream
  // block is likely damaged beyond its own protection.
  const bool prefer_coop = info.tail || keys.size() >= 2;

  for (const PacketKey& key : keys) {
    ++stats_.nack_keys;
    if (recover_key(key, receiver, prefer_coop)) {
      pending_.erase(key);
      continue;
    }
    // No coverage yet: the coded packet may still be in flight (the NACK
    // outran it), or the loss predates the session. Check with the receiver
    // before recovering later (Section 3.4).
    ++stats_.uncovered_keys;
    PendingNack& pending = pending_[key];
    pending.receiver = receiver;
    pending.expires_at = dc_.now() + params_.pending_nack_ttl;
    arm_sweep();
    if (confirm) {
      // Confirmed but still no coverage: keep waiting for coded packets
      // (their arrival triggers a fresh check).
      pending.confirmed = true;
    } else if (!pending.check_sent) {
      pending.check_sent = true;
      ++stats_.nack_checks_sent;
      auto check = make_packet(dc_.pool(), PacketType::kNackCheck, ServiceType::kCode,
                               key.flow, key.seq, dc_.id(), receiver, dc_.now());
      dc_.send(check);
    }
  }
}

bool RecoveryService::recover_key(const PacketKey& key, NodeId receiver, bool prefer_coop) {
  if (!prefer_coop && serve_in_stream(key, receiver)) return true;
  if (start_coop(key, receiver)) return true;
  // Fall back to the other strategy if the preferred one lacks coverage.
  if (prefer_coop && serve_in_stream(key, receiver)) return true;
  return false;
}

RecoveryService::BatchState* RecoveryService::cross_batch_for(const PacketKey& key) {
  auto it = key_index_.find(key);
  if (it == key_index_.end()) return nullptr;
  for (std::uint32_t id : it->second) {
    auto bit = batches_.find(id);
    if (bit != batches_.end() && bit->second.is_cross && batch_fresh(bit->second)) {
      return &bit->second;
    }
  }
  return nullptr;
}

RecoveryService::BatchState* RecoveryService::in_batch_for(const PacketKey& key) {
  auto it = key_index_.find(key);
  if (it == key_index_.end()) return nullptr;
  for (std::uint32_t id : it->second) {
    auto bit = batches_.find(id);
    if (bit != batches_.end() && !bit->second.is_cross && batch_fresh(bit->second)) {
      return &bit->second;
    }
  }
  return nullptr;
}

bool RecoveryService::serve_in_stream(const PacketKey& key, NodeId receiver) {
  BatchState* batch = in_batch_for(key);
  if (batch == nullptr) return false;
  // Ship the in-stream coded packets; the receiver decodes against its own
  // buffered packets of the same flow (half-RTT-to-DC recovery).
  for (const PacketPtr& coded : batch->coded) {
    auto out = alloc_packet_copy(dc_.pool(), *coded);
    out->dst = receiver;
    out->final_dst = receiver;
    dc_.send(out);
  }
  ++stats_.in_stream_served;
  return true;
}

bool RecoveryService::start_coop(const PacketKey& key, NodeId receiver) {
  BatchState* batch = cross_batch_for(key);
  if (batch == nullptr) return false;
  const std::uint32_t batch_id = batch->meta.batch_id;

  auto [it, inserted] = ops_.try_emplace(batch_id);
  CoopOp& op = it->second;
  op.requesters[key] = receiver;
  if (!inserted) return true;  // Join the already-running operation.

  ++stats_.coop_ops;
  op.batch_id = batch_id;
  op.started_at = dc_.now();

  // Solicit every *other* receiver in the batch for its data packet. The
  // requester's own packet is the one being recovered, so it is skipped.
  for (const PacketKey& covered : batch->meta.covered) {
    if (covered == key) continue;
    const FlowInfo* info = registry_->find(covered.flow);
    if (info == nullptr || info->receiver == kInvalidNode) continue;
    auto req = make_packet(dc_.pool(), PacketType::kCoopRequest, ServiceType::kCode,
                           covered.flow, covered.seq, dc_.id(), info->receiver,
                           dc_.now());
    // Carry only the batch id; responses echo it back.
    engage_meta(dc_.pool(), *req);
    req->meta->batch_id = batch_id;
    req->meta->k = batch->meta.k;
    req->meta->r = batch->meta.r;
    ++stats_.coop_requests_sent;
    dc_.send(req);
  }

  op.deadline_event = dc_.network().sim().after(
      params_.coop_deadline,
      [this, batch_id, epoch = epoch_] { finish_op_failure(batch_id, epoch); });
  // Small or coded-rich batches may be decodable with zero responses (the
  // stored coded packets alone suffice); finish immediately in that case.
  maybe_finish_op(op);
  return true;
}

void RecoveryService::on_coop_response(const PacketPtr& pkt) {
  if (!pkt->meta) return;
  auto it = ops_.find(pkt->meta->batch_id);
  if (it == ops_.end()) {
    ++stats_.straggler_responses;  // Arrived after success or deadline.
    return;
  }
  CoopOp& op = it->second;
  auto bit = batches_.find(op.batch_id);
  if (bit == batches_.end()) return;
  const CodedMeta& meta = bit->second.meta;
  // Locate the codeword position of the responding packet.
  const PacketKey key = pkt->key();
  for (std::size_t pos = 0; pos < meta.covered.size(); ++pos) {
    if (meta.covered[pos] == key) {
      ++stats_.coop_responses;
      op.responses.emplace(pos, pkt->payload);
      break;
    }
  }
  maybe_finish_op(op);
}

void RecoveryService::maybe_finish_op(CoopOp& op) {
  auto bit = batches_.find(op.batch_id);
  if (bit == batches_.end()) return;
  BatchState& batch = bit->second;
  const std::size_t k = batch.meta.k;
  if (op.responses.size() + batch.coded.size() < k) return;  // Not yet decodable.

  auto& present = present_scratch_;
  present.clear();
  present.reserve(op.responses.size());
  for (const auto& [pos, payload] : op.responses) {
    present.emplace_back(pos, std::span<const std::uint8_t>(payload));
  }
  auto recovered = fec::decode_batch(decode_arena_, batch.meta, present, batch.coded);
  if (!recovered) return;  // Still insufficient (duplicate positions etc).

  ++stats_.coop_success;
  for (auto& rp : *recovered) {
    auto rit = op.requesters.find(rp.key);
    if (rit == op.requesters.end()) continue;  // Nobody asked for this one.
    auto out = make_packet(dc_.pool(), PacketType::kRecovered, ServiceType::kCode,
                           rp.key.flow, rp.key.seq, dc_.id(), rit->second, dc_.now());
    out->final_dst = rit->second;
    out->payload = std::move(rp.payload);
    ++stats_.recovered_sent;
    dc_.send(out);
  }
  dc_.network().sim().cancel(op.deadline_event);
  const std::uint32_t finished_id = op.batch_id;  // op dies with the erase.
  ops_.erase(finished_id);
}

void RecoveryService::finish_op_failure(std::uint32_t batch_id, std::uint64_t epoch) {
  if (epoch != epoch_) {
    // Armed before a crash wipe: the op it referred to is gone, and batch_id
    // may even have been reused by a post-restart op. Counted no-op.
    ++stats_.stale_timers;
    return;
  }
  auto it = ops_.find(batch_id);
  if (it == ops_.end()) return;
  ++stats_.coop_deadline_failures;
  JQOS_DEBUG(dc_.name() << ": cooperative recovery deadline for batch " << batch_id);
  ops_.erase(it);  // Fails silently (Section 4.4).
}

void RecoveryService::arm_sweep() {
  if (sweep_armed_) return;
  sweep_armed_ = true;
  // Fire at the NEXT whole simulated second. Aligning sweeps to an absolute
  // grid (rather than "one second after whatever arrived first") keeps
  // reclamation timing -- and the batches_expired counter -- a pure function
  // of store times, independent of unrelated traffic sharing this DC.
  const SimTime next_tick = (dc_.now() / sec(1) + 1) * sec(1);
  sweep_event_ = dc_.network().sim().at(next_tick, [this, epoch = epoch_] {
    if (epoch != epoch_) {
      // Armed before a crash wipe (which also cancels; this guards the race
      // where the sweep fires at the same instant the cancel lands).
      ++stats_.stale_timers;
      return;
    }
    sweep_armed_ = false;
    sweep_batches();
    if (!batches_.empty() || !pending_.empty()) arm_sweep();
  });
}

void RecoveryService::on_dc_crash() {
  ++stats_.crash_wipes;
  ++epoch_;  // Every timer armed before this instant is now stale.
  for (auto& [id, op] : ops_) dc_.network().sim().cancel(op.deadline_event);
  ops_.clear();
  batches_.clear();
  key_index_.clear();
  pending_.clear();
  if (sweep_armed_) {
    dc_.network().sim().cancel(sweep_event_);
    sweep_armed_ = false;
  }
}

void RecoveryService::sweep_batches() {
  const SimTime cutoff = dc_.now() - params_.batch_ttl;
  for (auto it = batches_.begin(); it != batches_.end();) {
    if (it->second.first_seen < cutoff && ops_.find(it->first) == ops_.end()) {
      for (const PacketKey& key : it->second.meta.covered) {
        auto kit = key_index_.find(key);
        if (kit != key_index_.end()) {
          std::erase(kit->second, it->first);
          if (kit->second.empty()) key_index_.erase(kit);
        }
      }
      ++stats_.batches_expired;
      it = batches_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.expires_at <= dc_.now()) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace jqos::services
