#include "src/cache/item_cache.h"

#include "src/common/logging.h"

namespace silod {

// ---------------------------------------------------------------- Uniform --

UniformItemCache::UniformItemCache(Bytes capacity) : ItemCache(capacity) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
}

bool UniformItemCache::Access(const ItemKey& key) { return items_.count(key) > 0; }

bool UniformItemCache::Contains(const ItemKey& key) const { return items_.count(key) > 0; }

void UniformItemCache::Admit(const ItemKey& key, Bytes bytes) {
  SILOD_CHECK(bytes > 0) << "item size must be positive";
  if (items_.count(key) > 0) {
    return;
  }
  // Uniform caching: admit while space remains, never evict afterwards.
  if (used_ + bytes > capacity_) {
    return;
  }
  items_.emplace(key, bytes);
  insertion_order_.push_back(key);
  used_ += bytes;
}

void UniformItemCache::SetCapacity(Bytes capacity, Rng* rng) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
  capacity_ = capacity;
  // Shrinking evicts uniformly at random (§6), which keeps every surviving
  // item equally likely to be any dataset block — the property uniform
  // caching's closed-form hit ratio depends on.
  while (used_ > capacity_ && !insertion_order_.empty()) {
    SILOD_CHECK(rng != nullptr) << "rng required to shrink a uniform cache";
    const std::size_t idx =
        static_cast<std::size_t>(rng->NextBelow(insertion_order_.size()));
    const ItemKey victim = insertion_order_[idx];
    insertion_order_[idx] = insertion_order_.back();
    insertion_order_.pop_back();
    auto it = items_.find(victim);
    SILOD_CHECK(it != items_.end()) << "eviction candidate not resident";
    used_ -= it->second;
    items_.erase(it);
  }
}

// -------------------------------------------------------------------- LRU --

LruItemCache::LruItemCache(Bytes capacity) : ItemCache(capacity) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
}

bool LruItemCache::Access(const ItemKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

bool LruItemCache::Contains(const ItemKey& key) const { return map_.count(key) > 0; }

void LruItemCache::EvictToFit(Bytes incoming) {
  while (used_ + incoming > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    used_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

void LruItemCache::Admit(const ItemKey& key, Bytes bytes) {
  SILOD_CHECK(bytes > 0) << "item size must be positive";
  if (map_.count(key) > 0) {
    return;
  }
  if (bytes > capacity_) {
    return;
  }
  EvictToFit(bytes);
  lru_.push_front(Entry{key, bytes});
  map_[key] = lru_.begin();
  used_ += bytes;
}

void LruItemCache::SetCapacity(Bytes capacity, Rng* /*rng*/) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
  capacity_ = capacity;
  EvictToFit(0);
}

// -------------------------------------------------------------------- LFU --

LfuItemCache::LfuItemCache(Bytes capacity) : ItemCache(capacity) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
}

bool LfuItemCache::Contains(const ItemKey& key) const { return map_.count(key) > 0; }

void LfuItemCache::Touch(
    std::unordered_map<ItemKey, FreqList::iterator, ItemKeyHash>::iterator it) {
  auto list_it = it->second;
  Entry entry = *list_it;
  auto freq_it = by_freq_.find(entry.freq);
  freq_it->second.erase(list_it);
  if (freq_it->second.empty()) {
    by_freq_.erase(freq_it);
  }
  entry.freq += 1;
  auto& new_list = by_freq_[entry.freq];
  new_list.push_front(entry);
  it->second = new_list.begin();
}

bool LfuItemCache::Access(const ItemKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return false;
  }
  Touch(it);
  return true;
}

void LfuItemCache::EvictToFit(Bytes incoming) {
  while (used_ + incoming > capacity_ && !by_freq_.empty()) {
    auto freq_it = by_freq_.begin();  // Lowest frequency.
    FreqList& list = freq_it->second;
    const Entry& victim = list.back();  // LRU within the frequency class.
    used_ -= victim.bytes;
    map_.erase(victim.key);
    list.pop_back();
    if (list.empty()) {
      by_freq_.erase(freq_it);
    }
  }
}

void LfuItemCache::Admit(const ItemKey& key, Bytes bytes) {
  SILOD_CHECK(bytes > 0) << "item size must be positive";
  if (map_.count(key) > 0) {
    return;
  }
  if (bytes > capacity_) {
    return;
  }
  EvictToFit(bytes);
  auto& list = by_freq_[1];
  list.push_front(Entry{key, bytes, 1});
  map_[key] = list.begin();
  used_ += bytes;
}

void LfuItemCache::SetCapacity(Bytes capacity, Rng* /*rng*/) {
  SILOD_CHECK(capacity >= 0) << "negative capacity";
  capacity_ = capacity;
  EvictToFit(0);
}

}  // namespace silod
