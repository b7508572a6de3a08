// EpochShuffler: the loader's shuffled-epoch block order as a seekable cursor.
//
// Historically the loader kept a local (rng, order, position) triple: iota +
// one shuffle per epoch boundary, exactly-once-per-epoch access (§2.2).  The
// RestartCost policies need to *rewind* that cursor — a crash discards the
// un-checkpointed fetch suffix and the loader re-fetches from an earlier
// absolute index — and a respawned worker needs to *resume* from a checkpoint
// index.  SeekTo re-derives the epoch state from the seed by
// replaying the shuffles, so the block sequence is bit-identical to the
// historical loader for any crash/resume pattern (and to a crash-free run:
// epoch e's order is e+1 successive Fisher-Yates shuffles of iota).
//
// Cheap by construction: rt traces are tiny (tens of blocks), and SeekTo runs
// only at assignment and rollback, never per block.
#ifndef SILOD_SRC_RT_EPOCH_ORDER_H_
#define SILOD_SRC_RT_EPOCH_ORDER_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace silod {

class EpochShuffler {
 public:
  EpochShuffler(std::uint64_t seed, std::int64_t num_blocks)
      : seed_(seed), rng_(seed), order_(static_cast<std::size_t>(num_blocks)) {
    SILOD_CHECK(num_blocks > 0) << "empty dataset";
    std::iota(order_.begin(), order_.end(), std::int64_t{0});
    rng_.Shuffle(order_);  // Epoch 0's order.
  }

  // The block at the current absolute fetch index; advances the cursor
  // (reshuffling at each epoch boundary).
  std::int64_t Next() {
    if (position_ == order_.size()) {
      rng_.Shuffle(order_);
      position_ = 0;
    }
    return order_[position_++];
  }

  // Repositions to absolute fetch index `index` (epoch = index / num_blocks),
  // re-deriving the epoch's order from the seed.  Seeking to the index the
  // cursor is already at is a no-op in effect: the next Next() returns the
  // same block either way.
  void SeekTo(std::int64_t index) {
    SILOD_CHECK(index >= 0) << "negative fetch index";
    const auto n = static_cast<std::int64_t>(order_.size());
    const std::int64_t epoch = index / n;
    rng_ = Rng(seed_);
    std::iota(order_.begin(), order_.end(), std::int64_t{0});
    for (std::int64_t e = 0; e <= epoch; ++e) {
      rng_.Shuffle(order_);
    }
    position_ = static_cast<std::size_t>(index % n);
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::vector<std::int64_t> order_;
  std::size_t position_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_RT_EPOCH_ORDER_H_
