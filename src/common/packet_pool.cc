#include "common/packet_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace jqos {

struct PacketPool::Recycle {
  PacketPool* pool;
  void operator()(Packet* p) const { pool->release(p); }
};

template <typename T>
struct PacketPool::CtrlAlloc {
  using value_type = T;

  explicit CtrlAlloc(PacketPool* p) : pool(p) {}
  template <typename U>
  CtrlAlloc(const CtrlAlloc<U>& o) : pool(o.pool) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) { return static_cast<T*>(pool->take_block(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) { pool->give_block(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const CtrlAlloc<U>& o) const {
    return pool == o.pool;
  }

  PacketPool* pool;
};

PacketPool::~PacketPool() {
  if (outstanding_ != 0 || blocks_out_ != 0) {
    std::fprintf(stderr,
                 "PacketPool destroyed with %zu packets and %zu control blocks outstanding; "
                 "a pool must outlive every packet it hands out (docs/MEMORY.md)\n",
                 outstanding_, blocks_out_);
    std::abort();
  }
  for (Packet* p : free_packets_) delete p;
  for (void* b : free_blocks_) ::operator delete(b);
}

std::shared_ptr<Packet> PacketPool::acquire() {
  if (!enabled_) return std::make_shared<Packet>();
  Packet* p;
  if (!free_packets_.empty()) {
    p = free_packets_.back();
    free_packets_.pop_back();
    pooled_bytes_ -= sizeof(Packet) + p->payload.capacity();
    ++reused_;
  } else {
    p = new Packet();
    ++fresh_;
  }
  ++outstanding_;
  high_water_ = std::max(high_water_, outstanding_);
  // Should the control block allocation throw, shared_ptr hands p to the
  // deleter, which returns it here.
  return std::shared_ptr<Packet>(p, Recycle{this}, CtrlAlloc<Packet>(this));
}

std::shared_ptr<Packet> PacketPool::acquire_copy(const Packet& src) {
  if (!enabled_) return std::make_shared<Packet>(src);
  auto p = acquire();
  p->type = src.type;
  p->service = src.service;
  p->flow = src.flow;
  p->seq = src.seq;
  p->src = src.src;
  p->dst = src.dst;
  p->final_dst = src.final_dst;
  p->sent_at = src.sent_at;
  p->ecn_capable = src.ecn_capable;
  p->ecn_ce = src.ecn_ce;
  p->payload = src.payload;
  if (src.meta) {
    CodedMeta& m = engage_meta(*p);
    m.batch_id = src.meta->batch_id;
    m.index = src.meta->index;
    m.k = src.meta->k;
    m.r = src.meta->r;
    m.covered = src.meta->covered;
  }
  return p;
}

CodedMeta& PacketPool::engage_meta(Packet& pkt) {
  if (!pkt.meta) pkt.meta.emplace();
  CodedMeta& m = *pkt.meta;
  m.covered.clear();
  if (enabled_ && m.covered.capacity() == 0 && !spare_keys_.empty()) {
    pooled_bytes_ -= spare_keys_.back().capacity() * sizeof(PacketKey);
    m.covered = std::move(spare_keys_.back());
    spare_keys_.pop_back();
  }
  m.batch_id = 0;
  m.index = 0;
  m.k = 0;
  m.r = 0;
  return m;
}

// The shared_ptr deleter lands here. Scrub the packet back to the acquire()
// contract, salvage the covered-key vector's capacity, and pool what the
// byte budget allows.
void PacketPool::release(Packet* p) {
  --outstanding_;
  std::vector<PacketKey> keys;
  if (p->meta) {
    keys = std::move(p->meta->covered);
    keys.clear();
  }
  p->meta.reset();
  p->type = PacketType::kData;
  p->service = ServiceType::kNone;
  p->flow = 0;
  p->seq = 0;
  p->src = kInvalidNode;
  p->dst = kInvalidNode;
  p->final_dst = kInvalidNode;
  p->sent_at = 0;
  p->ecn_capable = false;
  p->ecn_ce = false;
  p->payload.clear();
  if (p->payload.capacity() > limits_.max_packet_bytes) p->payload.shrink_to_fit();

  const std::size_t pb = sizeof(Packet) + p->payload.capacity();
  if (pooled_bytes_ + pb <= limits_.max_retained_bytes) {
    pooled_bytes_ += pb;
    free_packets_.push_back(p);
  } else {
    delete p;
  }
  const std::size_t kb = keys.capacity() * sizeof(PacketKey);
  if (kb > 0 && pooled_bytes_ + kb <= limits_.max_retained_bytes) {
    pooled_bytes_ += kb;
    spare_keys_.push_back(std::move(keys));
  }
}

void* PacketPool::take_block(std::size_t bytes) {
  if (block_size_ == 0) block_size_ = bytes;
  void* b;
  if (bytes == block_size_ && !free_blocks_.empty()) {
    b = free_blocks_.back();
    free_blocks_.pop_back();
    pooled_bytes_ -= bytes;
  } else {
    b = ::operator new(bytes);
  }
  ++blocks_out_;
  return b;
}

void PacketPool::give_block(void* b, std::size_t bytes) {
  --blocks_out_;
  if (bytes == block_size_ && pooled_bytes_ + bytes <= limits_.max_retained_bytes) {
    pooled_bytes_ += bytes;
    free_blocks_.push_back(b);
  } else {
    ::operator delete(b);
  }
}

bool PacketPool::env_enabled() {
  const char* v = std::getenv("JQOS_OBJ_POOL");
  return !(v != nullptr && v[0] == '0' && v[1] == '\0');
}

}  // namespace jqos
