// The pooled Packet recycler behind the packet.h factories.
//
// A PacketPtr is a shared_ptr<const Packet>, so a per-packet heap cost hides
// in two places: the Packet itself (plus its payload / covered-key vectors)
// and the shared_ptr CONTROL BLOCK. PacketPool recycles both:
//
//  * acquire() pops a scrubbed Packet off a freelist -- payload capacity and
//    (via engage_meta) covered-key capacity are retained across checkouts --
//    and wraps it in a shared_ptr whose custom deleter returns the storage
//    here instead of freeing it.
//  * The shared_ptr is built with a pooling allocator, so the control block
//    comes from a freelist of fixed-size blocks rather than operator new.
//
// Call sites keep the existing PacketPtr type: a pooled packet is
// indistinguishable from a heap one, and a null pool everywhere means plain
// make_shared (exactly the JQOS_OBJ_POOL=0 passthrough).
//
// A pool has ONE owner (docs/MEMORY.md): the shard whose entities allocate
// from it. Only the thread running that shard acquires and releases, so the
// freelists take no lock, and the pool must outlive every packet it hands
// out -- ~PacketPool aborts if one is still outstanding. Retained memory is
// bounded by total bytes across packets, control blocks, and salvaged key
// vectors (never by object count -- the PR 7 ratchet lesson).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/packet.h"

namespace jqos {

class PacketPool {
 public:
  struct Limits {
    std::size_t max_retained_bytes = 16u << 20;
    // A returned packet whose payload capacity outgrew this has that
    // capacity dropped before pooling (bursts must not fatten the pool).
    std::size_t max_packet_bytes = 256u << 10;
  };

  // Reads JQOS_OBJ_POOL at construction (not a static cache) so one process
  // can compare both modes; "0" disables pooling, anything else enables it.
  PacketPool() : PacketPool(env_enabled()) {}
  // Two overloads rather than a defaulted Limits argument: a nested
  // aggregate's member initializers are not usable in a default argument
  // until the enclosing class is complete.
  explicit PacketPool(bool enabled) : PacketPool(enabled, Limits{}) {}
  PacketPool(bool enabled, Limits limits) : enabled_(enabled), limits_(limits) {}
  // Aborts with a message if a packet or control block is still checked
  // out: its deleter would return it into freed memory.
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  bool enabled() const { return enabled_; }

  // A blank mutable packet: header fields default-initialized, payload
  // empty (capacity retained), meta disengaged. Fill it, then hand it off
  // as PacketPtr. Disabled pool -> plain make_shared.
  std::shared_ptr<Packet> acquire();

  // A mutable deep copy of `src` into recycled storage.
  std::shared_ptr<Packet> acquire_copy(const Packet& src);

  // Engages pkt.meta (batch/index/k/r zeroed, covered cleared), handing the
  // covered vector salvaged capacity from previously recycled coded packets
  // so filling it allocates nothing in steady state.
  CodedMeta& engage_meta(Packet& pkt);

  // Byte-bounded retained-memory accounting.
  std::size_t pooled_bytes() const { return pooled_bytes_; }
  std::size_t high_water() const { return high_water_; }  // Max simultaneously outstanding.
  std::size_t outstanding() const { return outstanding_; }
  std::uint64_t reused() const { return reused_; }  // Freelist hits.
  std::uint64_t fresh() const { return fresh_; }    // Global-allocator constructions.

  static bool env_enabled();

 private:
  struct Recycle;  // The shared_ptr deleter.
  template <typename T>
  struct CtrlAlloc;  // The shared_ptr control-block allocator.

  void release(Packet* p);
  void* take_block(std::size_t bytes);
  void give_block(void* b, std::size_t bytes);

  bool enabled_;
  Limits limits_;
  std::vector<Packet*> free_packets_;
  std::vector<void*> free_blocks_;
  std::vector<std::vector<PacketKey>> spare_keys_;
  // Control blocks are all one size for a given shared_ptr shape; the first
  // allocation records it, and only that size is pooled.
  std::size_t block_size_ = 0;
  std::size_t pooled_bytes_ = 0;
  std::size_t outstanding_ = 0;  // Packets checked out.
  std::size_t blocks_out_ = 0;   // Control blocks checked out.
  std::size_t high_water_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t fresh_ = 0;
};

}  // namespace jqos
