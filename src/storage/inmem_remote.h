// An executable stand-in for the cloud storage service.
//
// The paper's prototype reads Azure Blob Storage through Alluxio; we have no
// cloud account, so this in-memory remote store synthesizes block contents
// deterministically (no actual multi-terabyte allocation) and enforces the
// account's egress limit with a wall-clock token bucket, exactly the
// behaviour the rest of the system observes: bytes arrive no faster than the
// egress cap, and every block's payload is verifiable by checksum.
//
// Thread-safe: the runtime's fetch paths read concurrently.
#ifndef SILOD_SRC_STORAGE_INMEM_REMOTE_H_
#define SILOD_SRC_STORAGE_INMEM_REMOTE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/storage/token_bucket.h"
#include "src/workload/dataset.h"

namespace silod {

class InMemRemoteStore {
 public:
  // `egress_limit` applies across all readers; `burst` bounds how far a reader
  // can run ahead of the sustained rate.
  InMemRemoteStore(BytesPerSec egress_limit, Bytes burst);

  void RegisterDataset(const Dataset& dataset);

  // Reads one block: sleeps as needed to respect the egress limit, then
  // materializes the deterministic payload.  An injected transient failure
  // is Status::Internal and spends no tokens; callers retry with backoff.
  Result<std::vector<std::uint8_t>> TryReadBlock(DatasetId dataset, std::int64_t block);

  // --- Fault injection (§6) -------------------------------------------------
  // Degrades the store: sustained egress drops to rate_factor * nominal and
  // each read fails with probability error_rate.  rate_factor in (0, 1],
  // error_rate in [0, 1).
  void SetFault(double rate_factor, double error_rate);
  void ClearFault() { SetFault(1.0, 0.0); }
  std::int64_t transient_errors() const { return transient_errors_.load(); }

  // The checksum a block's payload will have; computable without the bytes.
  static std::uint64_t ExpectedChecksum(DatasetId dataset, std::int64_t block, Bytes size);

  static std::uint64_t Checksum(const std::vector<std::uint8_t>& data);

 private:
  mutable std::mutex mu_;
  TokenBucket bucket_;
  std::map<DatasetId, Dataset> datasets_;
  std::atomic<std::int64_t> transient_errors_{0};
  const BytesPerSec egress_limit_;
  double error_rate_ = 0;  // Guarded by mu_.
  Rng rng_{0xFA117};       // Guarded by mu_.
  const std::int64_t start_ns_;
};

}  // namespace silod

#endif  // SILOD_SRC_STORAGE_INMEM_REMOTE_H_
