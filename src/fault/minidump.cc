#include "src/fault/minidump.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/common/text_codec.h"
#include "src/common/topology.h"

namespace silod {
namespace {

constexpr const char* kHeader = "silod-minidump-v2";

// Comma-separated integers; "" is the empty list.
Result<std::vector<std::int64_t>> ParseIntList(std::string_view csv) {
  std::vector<std::int64_t> values;
  for (const std::string_view piece : SplitList(csv, ',')) {
    const auto value = ParseInt(piece);
    if (!value.ok()) {
      return value.status();
    }
    values.push_back(*value);
  }
  return values;
}

std::string JoinInts(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(values[i]);
  }
  return out;
}

const char* EventKindName(MinidumpEvent::Kind kind) {
  switch (kind) {
    case MinidumpEvent::Kind::kAccess:
      return "access";
    case MinidumpEvent::Kind::kPlan:
      return "plan";
    case MinidumpEvent::Kind::kFault:
      return "fault";
    case MinidumpEvent::Kind::kNote:
      return "note";
  }
  return "unknown";
}

// Replays one kFault event — a codec record `server-crash shard=<s>`,
// `server-recover shard=<s>` or `dm-restart dead=<csv|-> snap=<snapshot>` —
// against the replay manager.  `manager` is reassigned wholesale on
// dm-restart (the live path builds a fresh manager too), which is why it is a
// non-const reference to a value.
Status ReplayFault(const std::string& detail, const DatasetCatalog& catalog,
                   const Minidump& dump, const ClusterTopology& topology, DataManager& manager) {
  const auto record = DecodeRecord(detail);
  if (!record.ok()) {
    return Status::InvalidArgument("minidump: fault detail: " + record.status().message());
  }
  const std::string& kind = record->head;
  FieldReader fields(record->fields, kind);
  if (kind == "server-crash" || kind == "server-recover") {
    const std::int64_t shard = fields.Int("shard");
    if (!fields.status().ok()) {
      return fields.status();
    }
    if (shard < 0 || shard >= manager.num_shards()) {
      return Status::InvalidArgument("minidump: fault shard out of range in \"" + detail + "\"");
    }
    if (kind == "server-crash") {
      manager.CrashShard(static_cast<int>(shard));
    } else {
      manager.RecoverShard(static_cast<int>(shard));
    }
    return Status::Ok();
  }
  if (kind == "dm-restart") {
    const std::string dead_csv = fields.String("dead");
    const std::string snap_text = fields.String("snap");
    if (!fields.status().ok()) {
      return fields.status();
    }
    const auto dead = ParseIntList(dead_csv == "-" ? "" : dead_csv);
    if (!dead.ok()) {
      return dead.status();
    }
    const auto snapshot = SnapshotFromText(snap_text, &catalog);
    if (!snapshot.ok()) {
      return snapshot.status();
    }
    // Mirrors the live restart: fresh manager, same topology, dead shards
    // crashed before the restore so their routed blocks drop on the floor.
    DataManager fresh(dump.total_cache, dump.remote_io, dump.seed, dump.num_shards);
    if (!topology.empty()) {
      if (const Status st = fresh.SetTopology(topology); !st.ok()) {
        return st;
      }
    }
    for (const std::int64_t shard : *dead) {
      if (shard < 0 || shard >= fresh.num_shards()) {
        return Status::InvalidArgument("minidump: dead shard out of range in \"" + detail + "\"");
      }
      fresh.CrashShard(static_cast<int>(shard));
    }
    if (const Status st = RestoreDataManager(*snapshot, catalog, &fresh); !st.ok()) {
      return st;
    }
    manager = std::move(fresh);
    return Status::Ok();
  }
  return Status::InvalidArgument("minidump: unknown fault kind \"" + kind + "\"");
}

Status ReplayPlan(const std::string& detail, const DatasetCatalog& catalog, DataManager& manager) {
  AllocationPlan plan;
  plan.cache_model = CacheModelKind::kDatasetQuota;
  if (detail != "-") {
    for (const std::string_view entry : SplitTokens(detail)) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("minidump: plan entry \"" + std::string(entry) + "\"");
      }
      const auto dataset = ParseInt(entry.substr(0, eq));
      if (!dataset.ok()) {
        return dataset.status();
      }
      std::string_view rest = entry.substr(eq + 1);
      const std::size_t at = rest.find('@');
      const auto zone_shares =
          ParseIntList(at == std::string_view::npos ? "" : rest.substr(at + 1));
      if (!zone_shares.ok()) {
        return zone_shares.status();
      }
      const auto quota = ParseInt(rest.substr(0, at));
      if (!quota.ok()) {
        return quota.status();
      }
      const auto id = static_cast<DatasetId>(*dataset);
      plan.dataset_cache[id] = *quota;
      if (!zone_shares->empty()) {
        plan.dataset_zone_cache[id] = *zone_shares;
      }
    }
  }
  return manager.ApplyPlan(plan, catalog);
}

// Applies one decoded minidump line to `dump`.
Status ApplyRecord(const TextRecord& record, Minidump* dump) {
  const std::string& head = record.head;
  FieldReader fields(record.fields, head);
  if (head == "time") {
    dump->wall_time = fields.Double("t");
  } else if (head == "reason") {
    dump->reason = fields.String("text");
  } else if (head == "topology") {
    dump->topology_spec = fields.String("text");
  } else if (head == "config") {
    const std::int64_t shards = fields.Int("shards");
    if (fields.status().ok() && (shards < 1 || shards > 1 << 16)) {
      return Status::InvalidArgument("num_shards must be in [1, 65536]");
    }
    dump->num_shards = static_cast<int>(shards);
    dump->total_cache = fields.Int("cache");
    dump->remote_io = fields.Double("io");
    dump->seed = fields.U64("seed");
  } else if (head == "dataset") {
    MinidumpCatalogEntry entry;
    entry.id = static_cast<DatasetId>(fields.Int("id"));
    entry.name = fields.String("name");
    entry.size = fields.Int("size");
    entry.block_size = fields.Int("block");
    dump->catalog.push_back(std::move(entry));
  } else if (head == "base") {
    dump->base_seq = fields.Int("seq");
  } else if (head == "shard") {
    if (fields.Int("index") != static_cast<std::int64_t>(dump->shards.size())) {
      return fields.status().ok() ? Status::InvalidArgument("shard records out of order")
                                  : fields.status();
    }
    MinidumpShard shard;
    shard.alive = fields.Int("alive") != 0;
    shard.capacity = fields.Int("capacity");
    shard.snapshot_text = fields.String("state");
    for (std::size_t i = 0; i < shard.rng_state.size(); ++i) {
      shard.rng_state[i] = fields.U64("rng" + std::to_string(i));
    }
    dump->shards.push_back(std::move(shard));
  } else if (head == "zone-shares") {
    const auto id = static_cast<DatasetId>(fields.Int("dataset"));
    auto shares = ParseIntList(fields.String("shares"));
    if (!shares.ok()) {
      return shares.status();
    }
    dump->zone_shares.emplace_back(id, *std::move(shares));
  } else if (head == "event") {
    MinidumpEvent event;
    event.seq = fields.Int("seq");
    const std::string kind = fields.String("kind");
    if (kind == "access") {
      event.kind = MinidumpEvent::Kind::kAccess;
      event.job = static_cast<JobId>(fields.Int("job"));
      event.dataset = static_cast<DatasetId>(fields.Int("dataset"));
      event.block = fields.Int("block");
      event.hit = fields.Int("hit") != 0;
    } else if (kind == "plan" || kind == "fault" || kind == "note") {
      event.kind = kind == "plan"    ? MinidumpEvent::Kind::kPlan
                   : kind == "fault" ? MinidumpEvent::Kind::kFault
                                     : MinidumpEvent::Kind::kNote;
      event.detail = fields.String("detail");
    } else if (fields.status().ok()) {
      return Status::InvalidArgument("unknown event kind \"" + kind + "\"");
    }
    dump->events.push_back(std::move(event));
  } else {
    return Status::InvalidArgument("unknown record \"" + head + "\"");
  }
  return fields.status();
}

}  // namespace

std::string MinidumpToText(const Minidump& dump) {
  std::string out = std::string(kHeader) + "\n";
  const auto line = [&out](std::string_view head, const RecordFields& fields) {
    out += EncodeRecord(head, fields);
    out += '\n';
  };
  line("time", {{"t", FormatExact(dump.wall_time)}});
  line("reason", {{"text", dump.reason}});
  line("config", {{"shards", std::to_string(dump.num_shards)},
                  {"cache", std::to_string(dump.total_cache)},
                  {"io", FormatExact(dump.remote_io)},
                  {"seed", std::to_string(dump.seed)}});
  line("topology", {{"text", dump.topology_spec}});
  for (const auto& entry : dump.catalog) {
    line("dataset", {{"id", std::to_string(entry.id)},
                     {"name", entry.name},
                     {"size", std::to_string(entry.size)},
                     {"block", std::to_string(entry.block_size)}});
  }
  line("base", {{"seq", std::to_string(dump.base_seq)}});
  for (std::size_t s = 0; s < dump.shards.size(); ++s) {
    const MinidumpShard& shard = dump.shards[s];
    RecordFields fields = {{"index", std::to_string(s)},
                           {"alive", shard.alive ? "1" : "0"},
                           {"capacity", std::to_string(shard.capacity)},
                           {"state", shard.snapshot_text}};
    for (std::size_t i = 0; i < shard.rng_state.size(); ++i) {
      fields["rng" + std::to_string(i)] = std::to_string(shard.rng_state[i]);
    }
    line("shard", fields);
  }
  for (const auto& [dataset, shares] : dump.zone_shares) {
    line("zone-shares", {{"dataset", std::to_string(dataset)}, {"shares", JoinInts(shares)}});
  }
  for (const MinidumpEvent& event : dump.events) {
    RecordFields fields = {{"seq", std::to_string(event.seq)},
                           {"kind", EventKindName(event.kind)}};
    if (event.kind == MinidumpEvent::Kind::kAccess) {
      fields["job"] = std::to_string(event.job);
      fields["dataset"] = std::to_string(event.dataset);
      fields["block"] = std::to_string(event.block);
      fields["hit"] = event.hit ? "1" : "0";
    } else {
      fields["detail"] = event.detail;
    }
    line("event", fields);
  }
  return out;
}

Result<Minidump> MinidumpFromText(const std::string& text) {
  const std::vector<std::string_view> lines = SplitList(text, '\n');
  if (lines.empty() || lines[0] != kHeader) {
    return Status::InvalidArgument(
        "minidump: want a " + std::string(kHeader) + " header" +
        (!lines.empty() && lines[0] == "silod-minidump-v1"
             ? ", got silod-minidump-v1 (no longer readable; re-record the dump)"
             : ""));
  }
  Minidump dump;
  bool saw_config = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      continue;
    }
    auto record = DecodeRecord(lines[i]);
    Status st = record.ok() ? ApplyRecord(*record, &dump) : record.status();
    if (!st.ok()) {
      return Status::InvalidArgument("minidump line " + std::to_string(i + 1) + ": " +
                                     st.message());
    }
    saw_config = saw_config || record->head == "config";
  }
  if (!saw_config) {
    return Status::InvalidArgument("minidump: missing config record");
  }
  if (static_cast<int>(dump.shards.size()) != dump.num_shards) {
    return Status::InvalidArgument("minidump: shard records do not match num_shards");
  }
  return dump;
}

Result<ReplayReport> ReplayMinidump(const Minidump& dump) {
  // Rebuild the catalog; ids must be dense and in order, as recorded.
  DatasetCatalog catalog;
  for (const MinidumpCatalogEntry& entry : dump.catalog) {
    const DatasetId id = catalog.Add(entry.name, entry.size, entry.block_size);
    if (id != entry.id) {
      return Status::InvalidArgument("minidump: catalog ids are not dense");
    }
  }
  ClusterTopology topology;
  if (!dump.topology_spec.empty()) {
    auto parsed = ClusterTopology::Parse(dump.topology_spec);
    if (!parsed.ok()) {
      return parsed.status();
    }
    topology = *std::move(parsed);
  }

  // Base state: fresh manager, topology, per-shard quota + residency, shard
  // liveness, then the RNG streams LAST — every restore step above may draw
  // from a shard's stream, and the recorded states are the live streams at
  // the window's first event, so they overwrite whatever setup consumed.
  DataManager manager(dump.total_cache, dump.remote_io, dump.seed, dump.num_shards);
  if (!topology.empty()) {
    if (const Status st = manager.SetTopology(topology); !st.ok()) {
      return st;
    }
  }
  for (int s = 0; s < dump.num_shards; ++s) {
    const MinidumpShard& shard = dump.shards[static_cast<std::size_t>(s)];
    const auto snapshot = SnapshotFromText(shard.snapshot_text, &catalog);
    if (!snapshot.ok()) {
      return snapshot.status();
    }
    if (const Status st = RestoreCacheManager(*snapshot, catalog, &manager.shard_cache(s));
        !st.ok()) {
      return st;
    }
  }
  for (int s = 0; s < dump.num_shards; ++s) {
    if (!dump.shards[static_cast<std::size_t>(s)].alive) {
      // The captured dead shard held no blocks (they were dropped at crash
      // time), so this evicts nothing and draws nothing.
      manager.CrashShard(s);
    }
  }
  for (int s = 0; s < dump.num_shards; ++s) {
    manager.shard_cache(s).eviction_rng().set_state(
        dump.shards[static_cast<std::size_t>(s)].rng_state);
  }
  for (const auto& [dataset, shares] : dump.zone_shares) {
    manager.RestoreZoneShares(dataset, shares);
  }

  ReplayReport report;
  for (const MinidumpEvent& event : dump.events) {
    ++report.events;
    switch (event.kind) {
      case MinidumpEvent::Kind::kAccess: {
        if (event.dataset < 0 || static_cast<std::size_t>(event.dataset) >= catalog.size()) {
          return Status::InvalidArgument("minidump: access to unknown dataset " +
                                         std::to_string(event.dataset));
        }
        ++report.accesses;
        const bool hit = manager.AccessBlock(catalog.Get(event.dataset), event.block);
        if (hit != event.hit) {
          report.ok = false;
          report.diverged_seq = event.seq;
          report.message = "event " + std::to_string(event.seq) + ": job " +
                           std::to_string(event.job) + " dataset " +
                           std::to_string(event.dataset) + " block " +
                           std::to_string(event.block) + " replayed " +
                           (hit ? "hit" : "miss") + ", recorded " +
                           (event.hit ? "hit" : "miss");
          return report;
        }
        break;
      }
      case MinidumpEvent::Kind::kPlan:
        if (const Status st = ReplayPlan(event.detail, catalog, manager); !st.ok()) {
          return st;
        }
        break;
      case MinidumpEvent::Kind::kFault:
        if (const Status st = ReplayFault(event.detail, catalog, dump, topology, manager);
            !st.ok()) {
          return st;
        }
        break;
      case MinidumpEvent::Kind::kNote:
        break;  // Forensic only.
    }
  }
  report.message = "replayed " + std::to_string(report.accesses) + " accesses bit-identically";
  return report;
}

Result<std::string> WriteMinidumpFile(const Minidump& dump, const std::string& dir,
                                      const std::string& label, int n) {
  if (dir.empty()) {
    return Status::InvalidArgument("minidump: empty output directory");
  }
  // Best effort: the directory may already exist, and a racing sibling
  // creating it first is fine.
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("minidump: mkdir " + dir + ": " + std::strerror(errno));
  }
  const std::string path = dir + "/minidump-" + label + "-" + std::to_string(n) + ".txt";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("minidump: cannot open " + path);
  }
  out << MinidumpToText(dump);
  out.flush();
  if (!out) {
    return Status::Internal("minidump: short write to " + path);
  }
  return path;
}

MinidumpRecorder::MinidumpRecorder(const DataManager& manager, const DatasetCatalog* catalog,
                                   BytesPerSec remote_io, std::uint64_t seed, int window)
    : catalog_(catalog),
      window_(window),
      num_shards_(manager.num_shards()),
      remote_io_(remote_io),
      seed_(seed),
      topology_spec_(manager.topology().ToSpec()) {
  SILOD_CHECK(catalog_ != nullptr) << "minidump recorder needs a catalog";
  SILOD_CHECK(window_ > 0) << "minidump window must be positive";
  total_cache_ = 0;
  for (int s = 0; s < num_shards_; ++s) {
    total_cache_ += manager.shard_cache(s).total_capacity();
  }
  catalog_entries_.reserve(catalog_->all().size());
  for (const Dataset& dataset : catalog_->all()) {
    catalog_entries_.push_back({dataset.id, dataset.name, dataset.size, dataset.block_size});
  }
  std::lock_guard<std::mutex> lock(mu_);
  CaptureBaseLocked(manager);
}

void MinidumpRecorder::CaptureBaseLocked(const DataManager& manager) {
  base_seq_ = next_seq_;
  events_.clear();
  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    const CacheManager& cache = manager.shard_cache(s);
    MinidumpShard shard;
    shard.alive = manager.shard_alive(s);
    shard.capacity = cache.total_capacity();
    shard.rng_state = cache.eviction_rng().state();
    shard.snapshot_text = SnapshotToText(CaptureCacheSnapshot(cache, *catalog_));
    shards_.push_back(std::move(shard));
  }
  zone_shares_.clear();
  for (const Dataset& dataset : catalog_->all()) {
    if (const std::vector<Bytes>* shares = manager.zone_shares_of(dataset.id)) {
      zone_shares_.emplace_back(dataset.id, *shares);
    }
  }
}

void MinidumpRecorder::AppendLocked(MinidumpEvent event) {
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
}

void MinidumpRecorder::MaybeRebase(const DataManager& manager) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int>(events_.size()) >= window_) {
    CaptureBaseLocked(manager);
  }
}

void MinidumpRecorder::RecordAccess(JobId job, DatasetId dataset, std::int64_t block, bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  MinidumpEvent event;
  event.kind = MinidumpEvent::Kind::kAccess;
  event.job = job;
  event.dataset = dataset;
  event.block = block;
  event.hit = hit;
  AppendLocked(std::move(event));
}

void MinidumpRecorder::RecordPlan(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  MinidumpEvent event;
  event.kind = MinidumpEvent::Kind::kPlan;
  event.detail = detail;
  AppendLocked(std::move(event));
}

void MinidumpRecorder::RecordFault(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  MinidumpEvent event;
  event.kind = MinidumpEvent::Kind::kFault;
  event.detail = detail;
  AppendLocked(std::move(event));
}

void MinidumpRecorder::Note(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  MinidumpEvent event;
  event.kind = MinidumpEvent::Kind::kNote;
  event.detail = text;
  AppendLocked(std::move(event));
}

std::string MinidumpRecorder::PlanDetail(const AllocationPlan& plan) {
  if (plan.dataset_cache.empty()) {
    return "-";
  }
  std::string out;
  for (const auto& [dataset, quota] : plan.dataset_cache) {
    out += (out.empty() ? "" : " ") + std::to_string(dataset) + "=" + std::to_string(quota);
    const auto zit = plan.dataset_zone_cache.find(dataset);
    if (zit != plan.dataset_zone_cache.end() && !zit->second.empty()) {
      out += "@" + JoinInts(zit->second);
    }
  }
  return out;
}

Minidump MinidumpRecorder::Dump(Seconds wall_time, std::string reason) const {
  std::lock_guard<std::mutex> lock(mu_);
  Minidump dump;
  dump.wall_time = wall_time;
  dump.reason = std::move(reason);
  dump.num_shards = num_shards_;
  dump.total_cache = total_cache_;
  dump.remote_io = remote_io_;
  dump.seed = seed_;
  dump.topology_spec = topology_spec_;
  dump.catalog = catalog_entries_;
  dump.base_seq = base_seq_;
  dump.shards = shards_;
  dump.zone_shares = zone_shares_;
  dump.events = events_;
  return dump;
}

}  // namespace silod
