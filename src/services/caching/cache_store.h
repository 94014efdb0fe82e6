// Short-term in-memory packet store (Section 3.2).
//
// "For any packet to use this service, there should be an associated timeout
// value and an identifier that can be used to retrieve/pull that packet."
// The identifier is the (flow, seq) PacketKey; the timeout is a TTL after
// which the entry is reclaimed. A byte-capacity bound with LRU eviction
// protects the DC's memory when many flows cache simultaneously.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/packet.h"

namespace jqos::services {

struct CacheStats {
  std::uint64_t puts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t expirations = 0;
  std::uint64_t capacity_evictions = 0;
};

class CacheStore {
 public:
  // max_bytes bounds the sum of stored payload sizes; 0 means unbounded.
  explicit CacheStore(std::uint64_t max_bytes = 0) : max_bytes_(max_bytes) {}

  // Stores (or refreshes) a packet under its key until now + ttl. Sweeps
  // first, so under steady insertion the store holds about one TTL of puts;
  // each put reclaims at most the entries that expired since the last one,
  // amortized O(1).
  void put(const PacketPtr& pkt, SimTime now, SimDuration ttl);

  // Retrieves a live entry; expired entries count as misses and are
  // reclaimed lazily.
  PacketPtr get(const PacketKey& key, SimTime now);

  // Drops expired entries in put order, stopping at the first one still
  // live; returns the number reclaimed. With one TTL for every put (the
  // caching service's case) that is every expired entry; an entry put with
  // a shorter TTL than an earlier, still-live one waits for it (it is never
  // served after its deadline either way: get() checks the deadline).
  std::size_t sweep(SimTime now);

  // Drops everything (DC crash: the cache restarts cold). Cumulative stats
  // survive -- they are books, not state.
  void clear() {
    entries_.clear();
    lru_.clear();
    expiry_.clear();
    bytes_ = 0;
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    PacketPtr pkt;
    SimTime expires_at;
    std::list<PacketKey>::iterator lru_it;
  };

  void erase(std::unordered_map<PacketKey, Entry>::iterator it);

  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
  std::unordered_map<PacketKey, Entry> entries_;
  // Most-recently-used at the front.
  std::list<PacketKey> lru_;
  // (deadline, key) per put, oldest first. A record whose entry was since
  // refreshed, evicted, or reclaimed by get() is stale and skipped.
  std::deque<std::pair<SimTime, PacketKey>> expiry_;
  CacheStats stats_;
};

}  // namespace jqos::services
