// Minidump: compact, replayable crash forensics for the runtime (§6).
//
// macOS-style minidump philosophy — selective, small by construction: instead
// of dumping the whole process, capture exactly the state the cache-side
// replay needs plus a bounded window of the events that led up to the
// incident.  On a fault, an invariant violation or an unexpected worker exit,
// RtCluster serializes:
//
//   - static config: shard count, pool/egress sizes, placement seed, topology
//     and the dataset catalog (everything needed to rebuild a DataManager);
//   - a base state aligned to the window's first event: per-shard residency +
//     quotas (core/recovery.h text snapshots), per-shard eviction-RNG states,
//     shard liveness, and per-dataset zone spreads;
//   - the bounded event window: every cache access (job, dataset, block,
//     hit), every applied quota plan, every Data-Manager-affecting fault, and
//     forensic notes (spawn/kill/exit/rollback) that are kept but not
//     replayed.
//
// Replay (ReplayMinidump / tools/silod_replay.cc) rebuilds the DataManager
// from the base and re-executes the window: every access must produce the
// recorded hit/miss bit-identically.  This works because AccessBlock is
// RNG-free and every RNG consumer (shrink evictions, shard crashes) runs only
// inside recorded events, so restoring the per-shard streams pins the whole
// trajectory.  A divergence means the dump caught real state corruption (or a
// replay-model bug) — exactly what a crash artifact is for.
//
// The recorder double-buffers: events append to the current window and, when
// it reaches `window` events, a fresh base is captured and the window resets.
// A dump therefore carries between 0 and `window` events, each replayable
// from the embedded base.  Capture cost is one per-shard residency scan every
// `window` events — noise at rt scale.
#ifndef SILOD_SRC_FAULT_MINIDUMP_H_
#define SILOD_SRC_FAULT_MINIDUMP_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/core/data_manager.h"
#include "src/core/recovery.h"
#include "src/sched/allocation.h"
#include "src/workload/dataset.h"

namespace silod {

struct MinidumpEvent {
  enum class Kind { kAccess, kPlan, kFault, kNote };

  std::int64_t seq = 0;
  Kind kind = Kind::kNote;
  // kAccess fields.
  JobId job = kInvalidJob;
  DatasetId dataset = kInvalidDataset;
  std::int64_t block = -1;
  bool hit = false;
  // kPlan: MinidumpRecorder::PlanDetail's encoding of the quota plan.
  // kFault: one common/text_codec.h record, "server-crash shard=<s>" |
  //         "server-recover shard=<s>" |
  //         "dm-restart dead=<csv|-> snap=<snapshot text>".
  // kNote: free-form forensic text (never replayed).
  std::string detail;

  bool operator==(const MinidumpEvent&) const = default;
};

struct MinidumpShard {
  bool alive = true;
  Bytes capacity = 0;
  std::array<std::uint64_t, 4> rng_state{};
  // This shard's quotas + residency (core/recovery.h text format).
  std::string snapshot_text;

  bool operator==(const MinidumpShard&) const = default;
};

struct MinidumpCatalogEntry {
  DatasetId id = kInvalidDataset;
  std::string name;
  Bytes size = 0;
  Bytes block_size = 0;

  bool operator==(const MinidumpCatalogEntry&) const = default;
};

struct Minidump {
  Seconds wall_time = 0;
  std::string reason;
  int num_shards = 1;
  Bytes total_cache = 0;
  BytesPerSec remote_io = 0;
  std::uint64_t seed = 7;
  std::string topology_spec;  // Empty = zone-oblivious.
  std::vector<MinidumpCatalogEntry> catalog;
  std::int64_t base_seq = 0;  // seq the base state is aligned to.
  std::vector<MinidumpShard> shards;
  std::vector<std::pair<DatasetId, std::vector<Bytes>>> zone_shares;
  std::vector<MinidumpEvent> events;

  bool operator==(const Minidump&) const = default;
};

// Durable serialization; MinidumpFromText(MinidumpToText(d)) == d.  The
// text is a "silod-minidump-v2" header, then one common/text_codec.h record
// per line (time, reason, config, topology, dataset, base, shard,
// zone-shares, event); strings are percent-escaped and doubles FormatExact.
std::string MinidumpToText(const Minidump& dump);
Result<Minidump> MinidumpFromText(const std::string& text);

struct ReplayReport {
  std::int64_t events = 0;    // Events re-executed (notes included).
  std::int64_t accesses = 0;  // Accesses compared against the recording.
  bool ok = true;             // Every access matched bit-identically.
  std::int64_t diverged_seq = -1;
  std::string message;
};

// Rebuilds the DataManager from the dump's base and re-executes the window.
// Status errors mean the dump itself is unusable (bad catalog, failed
// restore); a hit/miss mismatch is reported via ok/diverged_seq instead.
Result<ReplayReport> ReplayMinidump(const Minidump& dump);

// Serializes `dump` to <dir>/minidump-<label>-<n>.txt (creating <dir> if
// needed, best effort) and returns the path.
Result<std::string> WriteMinidumpFile(const Minidump& dump, const std::string& dir,
                                      const std::string& label, int n);

// Event recorder wired into the runtime's DataManager call sites.
//
// Locking contract: the replayable recording calls — MaybeRebase,
// RecordAccess, RecordPlan, RecordFault — must run under the same lock that
// serializes the DataManager itself (RtCluster's manager_mu_), with
// MaybeRebase called BEFORE the operation mutates the manager and RecordX
// after it.  Note() may be called from any thread.
class MinidumpRecorder {
 public:
  MinidumpRecorder(const DataManager& manager, const DatasetCatalog* catalog,
                   BytesPerSec remote_io, std::uint64_t seed, int window);

  void MaybeRebase(const DataManager& manager);
  void RecordAccess(JobId job, DatasetId dataset, std::int64_t block, bool hit);
  void RecordPlan(const std::string& detail);
  void RecordFault(const std::string& detail);
  void Note(const std::string& text);

  // The kPlan event encoding of a quota plan: space-separated
  // "<dataset>=<quota>" or "<dataset>=<quota>@z0,z1,..." entries.
  static std::string PlanDetail(const AllocationPlan& plan);

  // Assembles a dump of the current window.  Thread-safe.
  Minidump Dump(Seconds wall_time, std::string reason) const;

 private:
  void CaptureBaseLocked(const DataManager& manager);
  void AppendLocked(MinidumpEvent event);

  mutable std::mutex mu_;
  const DatasetCatalog* catalog_;
  const int window_;
  std::int64_t next_seq_ = 0;
  // Static config, captured at construction.
  int num_shards_;
  Bytes total_cache_;
  BytesPerSec remote_io_;
  std::uint64_t seed_;
  std::string topology_spec_;
  std::vector<MinidumpCatalogEntry> catalog_entries_;
  // Current window.
  std::int64_t base_seq_ = 0;
  std::vector<MinidumpShard> shards_;
  std::vector<std::pair<DatasetId, std::vector<Bytes>>> zone_shares_;
  std::vector<MinidumpEvent> events_;
};

}  // namespace silod

#endif  // SILOD_SRC_FAULT_MINIDUMP_H_
