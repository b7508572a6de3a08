// Tests for the minidump crash-forensics format (src/fault/minidump.h):
// text round-trip, bounded-window rebase, and deterministic replay — a
// recorded window must re-execute bit-identically, and a tampered recording
// must be flagged with the diverging sequence number.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/common/text_codec.h"
#include "src/core/data_manager.h"
#include "src/fault/minidump.h"
#include "src/workload/dataset.h"

namespace silod {
namespace {

DatasetCatalog TwoDatasets() {
  DatasetCatalog catalog;
  catalog.Add("imagenet-mini", MB(4), KB(250));
  catalog.Add("openimages-mini", MB(2), KB(250));
  return catalog;
}

AllocationPlan QuotaPlan(const DatasetCatalog& catalog, Bytes quota) {
  AllocationPlan plan;
  plan.cache_model = CacheModelKind::kDatasetQuota;
  for (const Dataset& d : catalog.all()) {
    plan.dataset_cache[d.id] = quota;
  }
  return plan;
}

// Drives `accesses` recorded epoch positions through the manager+recorder
// pair, the way RtCluster's fetch path does (rebase before, record after).
void DriveAccesses(DataManager* manager, MinidumpRecorder* recorder,
                   const DatasetCatalog& catalog, int accesses) {
  for (int i = 0; i < accesses; ++i) {
    const Dataset& d = catalog.Get(i % 2);
    const std::int64_t block = i % d.num_blocks;
    recorder->MaybeRebase(*manager);
    const bool hit = manager->AccessBlock(d, block);
    recorder->RecordAccess(/*job=*/i % 2, d.id, block, hit);
  }
}

TEST(Minidump, TextRoundTripIsExact) {
  const DatasetCatalog catalog = TwoDatasets();
  DataManager manager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  MinidumpRecorder recorder(manager, &catalog, MBps(100), /*seed=*/7, /*window=*/256);

  const AllocationPlan plan = QuotaPlan(catalog, MB(1));
  recorder.MaybeRebase(manager);
  ASSERT_TRUE(manager.ApplyPlan(plan, catalog).ok());
  recorder.RecordPlan(MinidumpRecorder::PlanDetail(plan));
  DriveAccesses(&manager, &recorder, catalog, 20);
  recorder.MaybeRebase(manager);
  manager.CrashShard(1);
  recorder.RecordFault("server-crash shard=1");
  recorder.Note("free-form text with spaces\nand a newline, plus a \\ backslash");
  DriveAccesses(&manager, &recorder, catalog, 10);

  const Minidump dump = recorder.Dump(/*wall_time=*/1.25, "round-trip test");
  const auto parsed = MinidumpFromText(MinidumpToText(dump));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(dump, *parsed);

  // Edge values the writer can emit must read back: a subnormal double, an
  // empty string and a string full of separators.
  Minidump edge = dump;
  edge.wall_time = std::numeric_limits<double>::denorm_min();
  edge.reason = "";
  edge.topology_spec = "rack0=0-1; a=b %20 \\e";
  const auto edge_parsed = MinidumpFromText(MinidumpToText(edge));
  ASSERT_TRUE(edge_parsed.ok()) << edge_parsed.status().ToString();
  EXPECT_EQ(edge, *edge_parsed);
}

TEST(Minidump, ReplayReproducesTheRecordingBitIdentically) {
  const DatasetCatalog catalog = TwoDatasets();
  DataManager manager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  MinidumpRecorder recorder(manager, &catalog, MBps(100), /*seed=*/7, /*window=*/256);

  const AllocationPlan plan = QuotaPlan(catalog, MB(1));
  recorder.MaybeRebase(manager);
  ASSERT_TRUE(manager.ApplyPlan(plan, catalog).ok());
  recorder.RecordPlan(MinidumpRecorder::PlanDetail(plan));
  DriveAccesses(&manager, &recorder, catalog, 40);
  recorder.MaybeRebase(manager);
  manager.CrashShard(0);
  recorder.RecordFault("server-crash shard=0");
  DriveAccesses(&manager, &recorder, catalog, 20);
  recorder.MaybeRebase(manager);
  manager.RecoverShard(0);
  recorder.RecordFault("server-recover shard=0");
  DriveAccesses(&manager, &recorder, catalog, 20);

  const Minidump dump = recorder.Dump(2.0, "replay test");
  const auto report = ReplayMinidump(dump);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok) << report->message;
  EXPECT_EQ(report->accesses, 80);
}

TEST(Minidump, ReplayFlagsATamperedAccess) {
  const DatasetCatalog catalog = TwoDatasets();
  DataManager manager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  MinidumpRecorder recorder(manager, &catalog, MBps(100), /*seed=*/7, /*window=*/256);

  const AllocationPlan plan = QuotaPlan(catalog, MB(1));
  recorder.MaybeRebase(manager);
  ASSERT_TRUE(manager.ApplyPlan(plan, catalog).ok());
  recorder.RecordPlan(MinidumpRecorder::PlanDetail(plan));
  DriveAccesses(&manager, &recorder, catalog, 30);

  Minidump dump = recorder.Dump(1.0, "tamper test");
  // Flip the hit bit of the last recorded access: the replay must catch the
  // corruption and name the sequence number.
  MinidumpEvent* last_access = nullptr;
  for (MinidumpEvent& event : dump.events) {
    if (event.kind == MinidumpEvent::Kind::kAccess) {
      last_access = &event;
    }
  }
  ASSERT_NE(last_access, nullptr);
  last_access->hit = !last_access->hit;

  const auto report = ReplayMinidump(dump);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok);
  EXPECT_EQ(report->diverged_seq, last_access->seq);
}

TEST(Minidump, RebaseBoundsTheWindowAndStaysReplayable) {
  const DatasetCatalog catalog = TwoDatasets();
  DataManager manager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  MinidumpRecorder recorder(manager, &catalog, MBps(100), /*seed=*/7, /*window=*/4);

  const AllocationPlan plan = QuotaPlan(catalog, MB(1));
  recorder.MaybeRebase(manager);
  ASSERT_TRUE(manager.ApplyPlan(plan, catalog).ok());
  recorder.RecordPlan(MinidumpRecorder::PlanDetail(plan));
  DriveAccesses(&manager, &recorder, catalog, 37);

  const Minidump dump = recorder.Dump(1.0, "rebase test");
  EXPECT_LE(static_cast<int>(dump.events.size()), 4);
  EXPECT_GT(dump.base_seq, 0);
  const auto report = ReplayMinidump(dump);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok) << report->message;
  // The window was rebased mid-stream: the replay starts from the embedded
  // base, not from a cold manager.
  EXPECT_EQ(report->events, static_cast<std::int64_t>(dump.events.size()));
}

TEST(Minidump, ReplaySurvivesADataManagerRestartEvent) {
  const DatasetCatalog catalog = TwoDatasets();
  DataManager manager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  MinidumpRecorder recorder(manager, &catalog, MBps(100), /*seed=*/7, /*window=*/256);

  const AllocationPlan plan = QuotaPlan(catalog, MB(1));
  recorder.MaybeRebase(manager);
  ASSERT_TRUE(manager.ApplyPlan(plan, catalog).ok());
  recorder.RecordPlan(MinidumpRecorder::PlanDetail(plan));
  DriveAccesses(&manager, &recorder, catalog, 30);

  // A Data-Manager restart exactly as RtCluster records it: capture, rebuild
  // fresh, restore, record the fault with the embedded snapshot.
  recorder.MaybeRebase(manager);
  const DataManagerSnapshot snapshot = CaptureSnapshot(manager, catalog);
  manager = DataManager(MB(3), MBps(100), /*seed=*/7, /*shards=*/3);
  ASSERT_TRUE(RestoreDataManager(snapshot, catalog, &manager).ok());
  recorder.RecordFault("dm-restart dead=- snap=" + EscapeToken(SnapshotToText(snapshot)));
  DriveAccesses(&manager, &recorder, catalog, 30);

  const Minidump dump = recorder.Dump(3.0, "dm-restart test");
  const auto parsed = MinidumpFromText(MinidumpToText(dump));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(dump, *parsed);
  const auto report = ReplayMinidump(*parsed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok) << report->message;
}

TEST(Minidump, FromTextRejectsGarbage) {
  EXPECT_FALSE(MinidumpFromText("not a minidump").ok());
  EXPECT_FALSE(MinidumpFromText("").ok());
  // A truncated dump parses the magic but must still fail cleanly.
  EXPECT_FALSE(MinidumpFromText("silod-minidump-v2\ntime t=1.0\n").ok());
  EXPECT_FALSE(MinidumpFromText("silod-minidump-v2\ntime t=1.0 t=2.0\n").ok());
  EXPECT_FALSE(MinidumpFromText("silod-minidump-v2\ntime t=1e999\n").ok());
  // The retired v1 format gets an error naming both versions.
  const auto v1 = MinidumpFromText("silod-minidump-v1\ntime 1.0\n");
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("silod-minidump-v1"), std::string::npos);
  EXPECT_NE(v1.status().message().find("silod-minidump-v2"), std::string::npos);
}

}  // namespace
}  // namespace silod
