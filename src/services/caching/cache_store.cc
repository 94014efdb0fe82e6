#include "services/caching/cache_store.h"

namespace jqos::services {

void CacheStore::put(const PacketPtr& pkt, SimTime now, SimDuration ttl) {
  ++stats_.puts;
  sweep(now);
  const PacketKey key = pkt->key();
  expiry_.emplace_back(now + ttl, key);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: replace payload and TTL, move to MRU position.
    bytes_ -= it->second.pkt->wire_size();
    bytes_ += pkt->wire_size();
    it->second.pkt = pkt;
    it->second.expires_at = now + ttl;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{pkt, now + ttl, lru_.begin()};
  bytes_ += pkt->wire_size();

  // Capacity eviction from the LRU tail; never evict the entry just added.
  while (max_bytes_ != 0 && bytes_ > max_bytes_ && entries_.size() > 1) {
    auto victim = entries_.find(lru_.back());
    if (victim == entries_.end()) break;
    ++stats_.capacity_evictions;
    erase(victim);
  }
}

PacketPtr CacheStore::get(const PacketKey& key, SimTime now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.expires_at <= now) {
    ++stats_.expirations;
    erase(it);
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  return it->second.pkt;
}

std::size_t CacheStore::sweep(SimTime now) {
  std::size_t reclaimed = 0;
  while (!expiry_.empty() && expiry_.front().first <= now) {
    const auto [deadline, key] = expiry_.front();
    expiry_.pop_front();
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.expires_at != deadline) continue;  // Stale.
    ++stats_.expirations;
    erase(it);
    ++reclaimed;
  }
  return reclaimed;
}

void CacheStore::erase(std::unordered_map<PacketKey, Entry>::iterator it) {
  bytes_ -= it->second.pkt->wire_size();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace jqos::services
