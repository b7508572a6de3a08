// An indexed per-key event calendar for the fine engine's stepping loop.
#ifndef SILOD_SRC_SIM_EVENT_QUEUE_H_
#define SILOD_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/common/units.h"

namespace silod {

// A binary min-heap over dense integer keys (job ids) where each key holds at
// most one pending event time.  Update() replaces a key's time with lazy
// invalidation: stale heap entries are discarded when they surface at the
// top, so reschedules cost O(log n) instead of a heap rebuild.  This is the
// index behind the fine engine's event-calendar stepping; callers own the
// tie-breaking policy for simultaneous events (PopDue returns every due key,
// in unspecified order).
class JobCalendar {
 public:
  // Discards all state and sizes the calendar for keys [0, num_keys).
  void Reset(std::size_t num_keys);

  // Sets/replaces `key`'s pending event time.
  void Update(std::int32_t key, Seconds t);

  // Clears `key`'s pending event, if any.
  void Remove(std::int32_t key);

  // Time of the earliest pending event; kInfiniteTime when none.
  Seconds PeekTime();

  // Pops every pending event with time <= cutoff, appending its key to `due`.
  // Popped keys have no pending event until the next Update.
  void PopDue(Seconds cutoff, std::vector<std::int32_t>& due);

  // Heap entries currently allocated, live and stale (observability).
  std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Entry {
    Seconds t;
    std::uint64_t version;
    std::int32_t key;
    bool operator>(const Entry& other) const { return t > other.t; }
  };
  void DropStale();

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<std::uint64_t> version_;  // Current version per key.
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_EVENT_QUEUE_H_
