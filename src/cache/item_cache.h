// Item-granularity caches used by the fine simulation engine.
//
// Three eviction disciplines:
//   - UniformItemCache: SiloD/CoorDL's uniform caching (§2.2) — admit items
//     until the capacity is reached, never evict afterwards.  Shrinking the
//     capacity evicts uniformly at random (§6), which preserves the uniform
//     hit-probability property.
//   - LruItemCache: Alluxio's default policy — classic LRU.
//   - LfuItemCache: least-frequently-used with LRU tie-break (O(1) scheme),
//     included because general-purpose cluster caches commonly offer it (§8).
//
// Caches store only metadata (keys and sizes); payload movement is what the
// engines simulate in virtual time.
#ifndef SILOD_SRC_CACHE_ITEM_CACHE_H_
#define SILOD_SRC_CACHE_ITEM_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/workload/dataset.h"

namespace silod {

struct ItemKey {
  DatasetId dataset = kInvalidDataset;
  std::int64_t block = -1;

  bool operator==(const ItemKey&) const = default;
  bool operator<(const ItemKey& o) const {
    return dataset != o.dataset ? dataset < o.dataset : block < o.block;
  }
};

struct ItemKeyHash {
  std::size_t operator()(const ItemKey& k) const {
    const std::uint64_t x = (static_cast<std::uint64_t>(k.dataset) << 40) ^
                            static_cast<std::uint64_t>(k.block) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

class ItemCache {
 public:
  explicit ItemCache(Bytes capacity) : capacity_(capacity) {}
  virtual ~ItemCache() = default;

  ItemCache(const ItemCache&) = delete;
  ItemCache& operator=(const ItemCache&) = delete;

  // Records an access.  Returns true on hit.  A hit may update recency or
  // frequency state; a miss records nothing (call Admit after fetching).
  virtual bool Access(const ItemKey& key) = 0;

  // Offers a fetched item of `bytes` for admission.  May evict other items.
  // No-op if the item is already resident.
  virtual void Admit(const ItemKey& key, Bytes bytes) = 0;

  // Changes capacity; shrinking evicts per the policy (uniform: random).
  virtual void SetCapacity(Bytes capacity, Rng* rng) = 0;

  // Residency check without touching recency/frequency state.
  virtual bool Contains(const ItemKey& key) const = 0;

  virtual Bytes used_bytes() const = 0;
  virtual std::size_t item_count() const = 0;
  Bytes capacity() const { return capacity_; }

 protected:
  Bytes capacity_;
};

class UniformItemCache : public ItemCache {
 public:
  explicit UniformItemCache(Bytes capacity);

  bool Access(const ItemKey& key) override;
  void Admit(const ItemKey& key, Bytes bytes) override;
  void SetCapacity(Bytes capacity, Rng* rng) override;
  bool Contains(const ItemKey& key) const override;
  Bytes used_bytes() const override { return used_; }
  std::size_t item_count() const override { return items_.size(); }

 private:
  std::unordered_map<ItemKey, Bytes, ItemKeyHash> items_;
  std::vector<ItemKey> insertion_order_;  // For O(1) random eviction on shrink.
  Bytes used_ = 0;
};

class LruItemCache : public ItemCache {
 public:
  explicit LruItemCache(Bytes capacity);

  bool Access(const ItemKey& key) override;
  void Admit(const ItemKey& key, Bytes bytes) override;
  void SetCapacity(Bytes capacity, Rng* rng) override;
  bool Contains(const ItemKey& key) const override;
  Bytes used_bytes() const override { return used_; }
  std::size_t item_count() const override { return map_.size(); }

 private:
  struct Entry {
    ItemKey key;
    Bytes bytes;
  };
  void EvictToFit(Bytes incoming);

  std::list<Entry> lru_;  // Front = most recent.
  std::unordered_map<ItemKey, std::list<Entry>::iterator, ItemKeyHash> map_;
  Bytes used_ = 0;
};

class LfuItemCache : public ItemCache {
 public:
  explicit LfuItemCache(Bytes capacity);

  bool Access(const ItemKey& key) override;
  void Admit(const ItemKey& key, Bytes bytes) override;
  void SetCapacity(Bytes capacity, Rng* rng) override;
  bool Contains(const ItemKey& key) const override;
  Bytes used_bytes() const override { return used_; }
  std::size_t item_count() const override { return map_.size(); }

 private:
  struct Entry {
    ItemKey key;
    Bytes bytes;
    std::int64_t freq;
  };
  using FreqList = std::list<Entry>;
  void Touch(std::unordered_map<ItemKey, FreqList::iterator, ItemKeyHash>::iterator it);
  void EvictToFit(Bytes incoming);

  std::map<std::int64_t, FreqList> by_freq_;  // freq -> entries, LRU within.
  std::unordered_map<ItemKey, FreqList::iterator, ItemKeyHash> map_;
  Bytes used_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_CACHE_ITEM_CACHE_H_
