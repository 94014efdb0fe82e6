#include "fec/coded_batch.h"

#include <algorithm>

#include "common/packet_pool.h"
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace jqos::fec {
namespace {

// Constructing a ReedSolomon codec builds and inverts a Vandermonde block —
// O(k^3) field operations. Batches reuse a handful of (k, r) shapes for the
// lifetime of a run, so cache codecs instead of rebuilding one per batch.
// ReedSolomon is immutable after construction, making the shared instances
// safe for concurrent encode/decode; the mutex only guards the map itself.
//
// decode_batch feeds (k, r) straight from received packet metadata, so the
// cache is bounded: a peer cycling through distinct shapes flushes the cache
// rather than growing it without limit. Callers hold shared_ptr, so a flush
// cannot free a codec that another thread is mid-encode on. The codec is
// constructed before the map is touched, so a throwing constructor (invalid
// shape from corrupt metadata) leaves no empty slot behind.
std::shared_ptr<const ReedSolomon> shared_codec_slow(std::size_t k, std::size_t r) {
  constexpr std::size_t kMaxCachedShapes = 64;
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::size_t>, std::shared_ptr<const ReedSolomon>>
      cache;
  {
    const std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find({k, r});
    if (it != cache.end()) return it->second;
  }
  auto codec = std::make_shared<const ReedSolomon>(k, r);  // Built outside the lock.
  const std::lock_guard<std::mutex> lock(mu);
  if (cache.size() >= kMaxCachedShapes) cache.clear();
  return cache.try_emplace({k, r}, std::move(codec)).first->second;
}

// Per-thread front for the global cache: one experiment shard (= one
// thread) cycles through a handful of (k, r) shapes, so a tiny direct-
// mapped thread_local table turns the steady-state decode path into two
// integer compares -- no mutex, no sharing, no contention between shards.
// Entries hold shared_ptr copies, so a global-cache flush can never free a
// codec a thread still references.
std::shared_ptr<const ReedSolomon> shared_codec(std::size_t k, std::size_t r) {
  struct Entry {
    std::size_t k = 0, r = 0;
    std::shared_ptr<const ReedSolomon> codec;
  };
  constexpr std::size_t kTlsSlots = 8;
  thread_local Entry tls[kTlsSlots];
  Entry& e = tls[(k * 31 + r) % kTlsSlots];
  if (e.codec && e.k == k && e.r == r) return e.codec;
  e.codec = shared_codec_slow(k, r);
  e.k = k;
  e.r = r;
  return e.codec;
}

// Shard framing: 2-byte original length prefix.
constexpr std::size_t kLenPrefix = 2;

std::vector<std::uint8_t> frame_shard(std::span<const std::uint8_t> payload,
                                      std::size_t shard_len) {
  std::vector<std::uint8_t> shard(shard_len, 0);
  shard[0] = static_cast<std::uint8_t>(payload.size() >> 8);
  shard[1] = static_cast<std::uint8_t>(payload.size() & 0xff);
  std::copy(payload.begin(), payload.end(), shard.begin() + kLenPrefix);
  return shard;
}

std::vector<std::uint8_t> unframe_shard(std::span<const std::uint8_t> shard) {
  if (shard.size() < kLenPrefix) return {};
  const std::size_t len = (static_cast<std::size_t>(shard[0]) << 8) | shard[1];
  if (len > shard.size() - kLenPrefix) return {};  // Corrupt frame.
  return std::vector<std::uint8_t>(shard.begin() + kLenPrefix,
                                   shard.begin() + static_cast<std::ptrdiff_t>(kLenPrefix + len));
}

}  // namespace

std::size_t shard_length(std::size_t max_payload) { return max_payload + kLenPrefix; }

void ShardArena::layout(std::size_t count, std::size_t shard_len) {
  stride_ = (shard_len + kAlignment - 1) / kAlignment * kAlignment;
  shard_len_ = shard_len;
  padded_len_ = std::min(stride_, (shard_len + kKernelStep - 1) / kKernelStep * kKernelStep);
  count_ = count;
  const std::size_t need = count * stride_ + kAlignment;
  if (buf_.size() < need) buf_.resize(need);
  const auto addr = reinterpret_cast<std::uintptr_t>(buf_.data());
  const std::uintptr_t aligned = (addr + kAlignment - 1) / kAlignment * kAlignment;
  base_ = buf_.data() + (aligned - addr);
}

void ShardArena::frame_shard_into(std::size_t i, std::span<const std::uint8_t> payload) {
  std::uint8_t* shard_ptr = shard(i);
  shard_ptr[0] = static_cast<std::uint8_t>(payload.size() >> 8);
  shard_ptr[1] = static_cast<std::uint8_t>(payload.size() & 0xff);
  if (!payload.empty()) std::memcpy(shard_ptr + kLenPrefix, payload.data(), payload.size());
  // Zero only the pad (through padded_len, so kernels can run tail-free):
  // the arena is recycled across batches, so bytes past the payload may
  // hold the previous batch's data.
  const std::size_t used = kLenPrefix + payload.size();
  if (used < padded_len_) std::memset(shard_ptr + used, 0, padded_len_ - used);
}

std::vector<PacketPtr> encode_batch(std::span<const PacketPtr> data,
                                    std::size_t num_coded, PacketType coded_type,
                                    std::uint32_t batch_id, NodeId src, NodeId dst,
                                    SimTime now) {
  if (data.empty()) throw std::invalid_argument("encode_batch: empty batch");
  if (data.size() + num_coded > 255) {
    throw std::invalid_argument("encode_batch: batch too large for GF(256)");
  }
  std::size_t max_payload = 0;
  for (const PacketPtr& p : data) max_payload = std::max(max_payload, p->payload.size());
  if (max_payload > 0xffff) {
    // The u16 length prefix cannot frame it; truncating would corrupt
    // every recovery of the batch.
    throw std::invalid_argument("encode_batch: payload exceeds 65535 bytes");
  }
  const std::size_t len = shard_length(max_payload);

  std::vector<std::vector<std::uint8_t>> shards;
  shards.reserve(data.size());
  CodedMeta meta;
  meta.batch_id = batch_id;
  meta.k = static_cast<std::uint8_t>(data.size());
  meta.r = static_cast<std::uint8_t>(num_coded);
  for (const PacketPtr& p : data) {
    shards.push_back(frame_shard(p->payload, len));
    meta.covered.push_back(p->key());
  }

  std::vector<std::span<const std::uint8_t>> shard_spans;
  shard_spans.reserve(shards.size());
  for (const auto& s : shards) shard_spans.emplace_back(s);

  const auto rs = shared_codec(data.size(), num_coded);
  auto parity = rs->encode(shard_spans);

  std::vector<PacketPtr> out;
  out.reserve(num_coded);
  for (std::size_t i = 0; i < parity.size(); ++i) {
    auto pkt = std::make_shared<Packet>();
    pkt->type = coded_type;
    // Coded packets belong to no single flow; flow/seq identify the batch
    // and codeword index instead so logs stay greppable.
    pkt->flow = 0;
    pkt->seq = batch_id;
    pkt->src = src;
    pkt->dst = dst;
    pkt->sent_at = now;
    CodedMeta m = meta;
    m.index = static_cast<std::uint8_t>(data.size() + i);
    pkt->meta = std::move(m);
    pkt->payload = std::move(parity[i]);
    out.push_back(std::move(pkt));
  }
  return out;
}

void BatchEncoder::encode_into(std::span<const PacketPtr> data, std::size_t num_coded,
                               PacketType coded_type, std::uint32_t batch_id, NodeId src,
                               NodeId dst, SimTime now, std::vector<PacketPtr>& out,
                               PacketPool* pool) {
  if (data.empty()) throw std::invalid_argument("BatchEncoder::encode_into: empty batch");
  if (data.size() + num_coded > 255) {
    throw std::invalid_argument("BatchEncoder::encode_into: batch too large for GF(256)");
  }
  const std::size_t k = data.size();
  std::size_t max_payload = 0;
  for (const PacketPtr& p : data) max_payload = std::max(max_payload, p->payload.size());
  if (max_payload > 0xffff) {
    throw std::invalid_argument(
        "BatchEncoder::encode_into: payload exceeds 65535 bytes");
  }
  const std::size_t len = shard_length(max_payload);

  // Frame all k shards into the reused arena: one memcpy per payload, zero
  // pad only, no allocation once the arena reaches its high-water size.
  arena_.layout(k, len);
  for (std::size_t i = 0; i < k; ++i) arena_.frame_shard_into(i, data[i]->payload);

  if (codec_ == nullptr || codec_->k() != k || codec_->r() != num_coded) {
    codec_ = shared_codec(k, num_coded);
  }

  if (num_coded == 0) return;

  // Create the coded packets up front so parity is computed directly into
  // their payload buffers — the arena-to-packet copy of the legacy path
  // disappears. Two storage strategies, byte-identical outputs:
  //
  //  * Pooled (pool enabled): each packet is recycled from the owning
  //    shard's PacketPool, reusing payload capacity and covered-key capacity
  //    from earlier batches — zero allocator traffic in steady state.
  //  * Slab (no pool): the batch's packets share one slab allocation
  //    (aliasing shared_ptrs into a make_shared array): one control block
  //    for all r outputs instead of one per packet.
  out.reserve(out.size() + num_coded);
  parity_ptrs_.clear();
  pooled_pkts_.clear();
  const bool use_pool = pool != nullptr && pool->enabled();
  std::shared_ptr<Packet[]> slab;
  if (!use_pool) slab = std::make_shared<Packet[]>(num_coded);
  for (std::size_t i = 0; i < num_coded; ++i) {
    Packet* pkt_ptr;
    if (use_pool) {
      auto pp = pool->acquire();
      pkt_ptr = const_cast<Packet*>(pp.get());
      out.push_back(std::move(pp));
    } else {
      pkt_ptr = &slab[i];
      out.push_back(PacketPtr(slab, pkt_ptr));
    }
    pooled_pkts_.push_back(pkt_ptr);
    Packet& pkt = *pkt_ptr;
    pkt.type = coded_type;
    // Same field conventions as encode_batch (see comment there).
    pkt.flow = 0;
    pkt.seq = batch_id;
    pkt.src = src;
    pkt.dst = dst;
    pkt.sent_at = now;
    if (use_pool) {
      pool->engage_meta(pkt);
    } else {
      pkt.meta.emplace();
    }
    auto& m = *pkt.meta;
    m.batch_id = batch_id;
    m.index = static_cast<std::uint8_t>(k + i);
    m.k = static_cast<std::uint8_t>(k);
    m.r = static_cast<std::uint8_t>(num_coded);
    m.covered.reserve(k);
    for (const PacketPtr& p : data) m.covered.push_back(p->key());
    pkt.payload.resize(arena_.padded_len());
    parity_ptrs_.push_back(pkt.payload.data());
  }
  // Run the kernels over the zero-padded length — whole SIMD steps, no
  // scalar tails — then trim each payload to the true shard length (the
  // trimmed bytes are parity over zeros, i.e. zero).
  codec_->encode_into(arena_.data(), arena_.stride(), arena_.padded_len(),
                      parity_ptrs_.data());
  for (Packet* pkt : pooled_pkts_) pkt->payload.resize(len);
}

std::optional<std::vector<RecoveredPacket>> decode_batch(
    const CodedMeta& meta,
    std::span<const std::pair<std::size_t, std::span<const std::uint8_t>>> present_data,
    std::span<const PacketPtr> coded) {
  ShardArena arena;
  return decode_batch(arena, meta, present_data, coded);
}

std::optional<std::vector<RecoveredPacket>> decode_batch(
    ShardArena& arena, const CodedMeta& meta,
    std::span<const std::pair<std::size_t, std::span<const std::uint8_t>>> present_data,
    std::span<const PacketPtr> coded) {
  const std::size_t k = meta.k;
  if (k == 0 || meta.covered.size() != k) return std::nullopt;
  if (present_data.size() + coded.size() < k) return std::nullopt;

  // Shard length is dictated by the coded payloads (parity shards are
  // exactly shard-length long).
  std::size_t len = 0;
  for (const PacketPtr& c : coded) len = std::max(len, c->payload.size());
  if (len == 0) return std::nullopt;

  // Arena plan: framed present shards first, then one output slot per
  // missing position. Present and missing positions are complementary
  // subsets of [0, k), so k slots cover both. Coded payloads are read in
  // place from the stored packets.
  arena.layout(k, len);

  std::vector<std::pair<std::size_t, const std::uint8_t*>> inputs;
  inputs.reserve(k);
  std::vector<bool> have(k, false);
  std::size_t framed = 0;
  for (const auto& [pos, payload] : present_data) {
    if (pos >= k || have[pos]) continue;
    if (payload.size() + kLenPrefix > len) return std::nullopt;  // Inconsistent batch.
    arena.frame_shard_into(framed, payload);
    inputs.emplace_back(pos, arena.shard(framed));
    ++framed;
    have[pos] = true;
  }
  std::vector<bool> have_coded(static_cast<std::size_t>(k) + meta.r, false);
  for (const PacketPtr& c : coded) {
    if (inputs.size() >= k) break;
    if (!c->meta || c->meta->batch_id != meta.batch_id) continue;
    if (c->meta->index < k || c->meta->index >= k + meta.r) continue;
    if (c->payload.size() != len) continue;
    if (have_coded[c->meta->index]) continue;  // Duplicate delivery.
    have_coded[c->meta->index] = true;
    inputs.emplace_back(c->meta->index, c->payload.data());
  }
  if (inputs.size() < k) return std::nullopt;

  // Reconstruct only the missing positions, straight into arena slots.
  std::vector<std::size_t> targets;
  std::vector<std::uint8_t*> outs;
  targets.reserve(k);
  outs.reserve(k);
  for (std::size_t pos = 0; pos < k; ++pos) {
    if (have[pos]) continue;  // Caller already has it.
    targets.push_back(pos);
    outs.push_back(arena.shard(framed + targets.size() - 1));
  }

  const auto rs = shared_codec(k, meta.r);
  if (!rs->decode_into(inputs, len, targets, outs.data())) return std::nullopt;

  std::vector<RecoveredPacket> out;
  out.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    RecoveredPacket rp;
    rp.position = targets[t];
    rp.key = meta.covered[targets[t]];
    rp.payload = unframe_shard(std::span<const std::uint8_t>(outs[t], len));
    out.push_back(std::move(rp));
  }
  return out;
}

}  // namespace jqos::fec
