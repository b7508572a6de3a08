#include "src/sim/event_queue.h"

#include "src/common/logging.h"

namespace silod {

void JobCalendar::Reset(std::size_t num_keys) {
  heap_ = {};
  version_.assign(num_keys, 0);
}

void JobCalendar::Update(std::int32_t key, Seconds t) {
  SILOD_CHECK(key >= 0 && static_cast<std::size_t>(key) < version_.size())
      << "calendar key out of range: " << key;
  heap_.push(Entry{t, ++version_[static_cast<std::size_t>(key)], key});
}

void JobCalendar::Remove(std::int32_t key) {
  SILOD_CHECK(key >= 0 && static_cast<std::size_t>(key) < version_.size())
      << "calendar key out of range: " << key;
  ++version_[static_cast<std::size_t>(key)];
}

void JobCalendar::DropStale() {
  while (!heap_.empty() &&
         heap_.top().version != version_[static_cast<std::size_t>(heap_.top().key)]) {
    heap_.pop();
  }
}

Seconds JobCalendar::PeekTime() {
  DropStale();
  return heap_.empty() ? kInfiniteTime : heap_.top().t;
}

void JobCalendar::PopDue(Seconds cutoff, std::vector<std::int32_t>& due) {
  for (;;) {
    DropStale();
    if (heap_.empty() || heap_.top().t > cutoff) {
      return;
    }
    const std::int32_t key = heap_.top().key;
    due.push_back(key);
    heap_.pop();
    // The popped event is consumed: bump the version so no other entry for
    // this key (they are all older, hence stale anyway) can resurface.
    ++version_[static_cast<std::size_t>(key)];
  }
}

}  // namespace silod
