// Shared scaffolding for the benchmark harnesses: the paper's cluster
// configurations (Table 5) and trace recipes, plus result formatting.
//
// Absolute numbers are not expected to match the paper (our substrate is a
// simulator, not the authors' Azure testbed); every harness prints the same
// rows/series the paper reports so the *shape* — who wins, by what factor,
// where crossovers fall — can be compared.  EXPERIMENTS.md records the
// comparison.
#ifndef SILOD_BENCH_BENCH_UTIL_H_
#define SILOD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/text_codec.h"
#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/core/system.h"
#include "src/workload/trace_gen.h"

namespace silod::bench {

// --- Cluster configurations (Table 5 scales) --------------------------------

// 8 V100 / 2 TB SSD cache / 1.6 Gbps egress (§7.1.1).
inline SimConfig MicroClusterConfig() {
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = TB(2);
  config.resources.remote_io = Gbps(1.6);
  config.resources.num_servers = 2;
  config.reschedule_period = Minutes(10);
  return config;
}

// 96 GPUs / 8 Gbps egress (§7.1.2).  Cache scaled to keep it scarce relative
// to the multi-epoch working set (the regime where cache policy matters).
inline SimConfig Cluster96Config() {
  SimConfig config;
  config.resources.total_gpus = 96;
  config.resources.total_cache = TB(7.2);
  config.resources.remote_io = Gbps(8);
  config.resources.num_servers = 24;
  config.reschedule_period = Minutes(10);
  return config;
}

// 400 V100 / 32 Gbps egress (§7.2).
inline SimConfig Cluster400Config() {
  SimConfig config;
  config.resources.total_gpus = 400;
  config.resources.total_cache = TB(30);
  config.resources.remote_io = Gbps(32);
  config.resources.num_servers = 100;
  config.reschedule_period = Minutes(10);
  return config;
}

// --- Trace recipes -----------------------------------------------------------

// The large-scale simulation trace (§7.2): Philly-like heavy-tailed
// durations, saturating arrivals so the queue builds up, unique datasets
// unless share_fraction > 0.
inline TraceOptions Trace400Options(double share_fraction = 0.0, double gpu_speed = 1.0,
                                    std::uint64_t seed = 2) {
  TraceOptions options;
  options.num_jobs = 1200;
  options.mean_interarrival = Minutes(1);
  options.median_duration = Hours(3);
  options.duration_sigma = 1.4;
  options.max_duration = Days(2);
  options.share_fraction = share_fraction;
  options.gpu_speed_scale = gpu_speed;
  options.seed = seed;
  return options;
}

// The 96-GPU experiment trace (§7.1.2), proportionally smaller.
inline TraceOptions Trace96Options(std::uint64_t seed = 3) {
  TraceOptions options;
  options.num_jobs = 300;
  options.mean_interarrival = Minutes(4);
  options.median_duration = Hours(3);
  options.duration_sigma = 1.4;
  options.max_duration = Days(2);
  options.seed = seed;
  return options;
}

// --- Frozen scheduler snapshots ----------------------------------------------

// A mid-trace cluster state at `n` active jobs: roughly half the jobs hold
// GPUs (with partly filled caches), the rest wait; 30% of jobs share a
// canonical dataset; cache, egress and GPUs scale with n from the §7.2
// 400-GPU cluster; a finite per-job remote-IO cap and four cache racks make
// every co-designed policy take its full path.  The recipe (seed 17) is
// frozen: bench_sched_solve's committed baselines and the Gavel search's
// spec test (SchedTest.GavelSearchMatchesBisection) are taken on it.
struct SolveSnapshot {
  Trace trace;
  ClusterTopology topology;
  Snapshot snapshot;
};

inline std::unique_ptr<SolveSnapshot> MakeSolveSnapshot(int n) {
  auto s = std::make_unique<SolveSnapshot>();
  TraceOptions options;
  options.num_jobs = n;
  options.mean_interarrival = Minutes(1);
  options.share_fraction = 0.3;
  options.seed = 17;
  s->trace = TraceGenerator(options).Generate();

  const int servers = std::max(4, n / 4);
  std::string spec;
  for (int r = 0; r < 4; ++r) {
    spec += (r ? ";rack" : "rack") + std::to_string(r) + "=" + std::to_string(r * servers / 4) +
            "-" + std::to_string((r + 1) * servers / 4 - 1);
  }
  Result<ClusterTopology> topology = ClusterTopology::Parse(spec);
  SILOD_CHECK(topology.ok()) << "bad topology " << spec << ": " << topology.status().ToString();
  s->topology = *std::move(topology);

  Snapshot& snap = s->snapshot;
  snap.now = s->trace.jobs.back().submit_time;
  snap.catalog = &s->trace.catalog;
  snap.topology = &s->topology;
  snap.resources.total_gpus = std::max(8, s->trace.TotalGpuDemand() * 3 / 4);
  snap.resources.total_cache = GB(75) * n;
  snap.resources.remote_io = Gbps(0.08) * n;
  snap.resources.per_job_remote_cap = MBps(60);
  snap.resources.num_servers = servers;

  Rng rng(17);
  int held = 0;
  for (const JobSpec& job : s->trace.jobs) {
    JobView view;
    view.spec = &job;
    view.remaining_bytes =
        static_cast<Bytes>((0.1 + 0.9 * rng.NextDouble()) * static_cast<double>(job.total_bytes));
    if (held + job.num_gpus <= snap.resources.total_gpus / 2) {
      held += job.num_gpus;
      view.running = true;
      view.effective_cache = static_cast<Bytes>(
          rng.NextDouble() * static_cast<double>(s->trace.catalog.Get(job.dataset).size));
    }
    snap.jobs.push_back(view);
  }
  return s;
}

// --- Result helpers ----------------------------------------------------------

struct RunRow {
  std::string system;
  SimResult result;
};

inline SimResult Run(const Trace& trace, SchedulerKind scheduler, CacheSystem cache,
                     SimConfig sim, EngineKind engine = EngineKind::kFlow,
                     SchedulerOptions scheduler_options = {}) {
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.scheduler_options = scheduler_options;
  config.sim = sim;
  config.engine = engine;
  return RunExperiment(trace, config);
}

inline const std::vector<CacheSystem>& AllCacheSystems() {
  static const std::vector<CacheSystem> kSystems = {
      CacheSystem::kSiloD, CacheSystem::kAlluxio, CacheSystem::kCoorDl, CacheSystem::kQuiver};
  return kSystems;
}

inline const std::vector<SchedulerKind>& AllSchedulers() {
  static const std::vector<SchedulerKind> kSchedulers = {
      SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel};
  return kSchedulers;
}

// Prints a downsampled (time, value) series as two aligned rows.
inline void PrintSeries(const char* label, const TimeSeries& series, double value_scale,
                        std::size_t points = 12) {
  const auto samples = series.Downsample(points);
  std::printf("%s\n  t(min): ", label);
  for (const auto& [t, v] : samples) {
    std::printf("%8.0f", ToMinutes(t));
  }
  std::printf("\n  value : ");
  for (const auto& [t, v] : samples) {
    std::printf("%8.1f", v * value_scale);
  }
  std::printf("\n");
}

// --- Gate flags and committed baselines --------------------------------------

// A --sizes list: comma-separated positive integers, at least one.
inline Result<std::vector<int>> ParseSizes(std::string_view spec) {
  std::vector<int> sizes;
  for (const std::string_view entry : SplitList(spec, ',')) {
    const Result<std::int64_t> n = ParseInt(entry, 1, INT_MAX);
    if (!n.ok()) {
      return Status::InvalidArgument("--sizes entry '" + std::string(entry) +
                                     "' is not a positive integer");
    }
    sizes.push_back(static_cast<int>(*n));
  }
  if (sizes.empty()) {
    return Status::InvalidArgument("--sizes is empty");
  }
  return sizes;
}

// A --max-regress fraction: finite and >= 0 (NaN would switch the gate off).
inline Result<double> ParseMaxRegress(std::string_view text) {
  const Result<double> value = ParseDouble(text);
  if (!value.ok() || !std::isfinite(*value) || *value < 0) {
    return Status::InvalidArgument("--max-regress must be a finite number >= 0, got '" +
                                   std::string(text) + "'");
  }
  return *value;
}

// A committed baseline: the document one of these harnesses wrote, read by
// the strict JSON reader (common/text_codec.h).  Its rows sit in the
// `rows_key` array, each named by its string `name_key` member.  Every way a
// baseline can fail to gate a run is an error here, so a gate never passes
// by not finding what it compares.
class Baseline {
 public:
  // An error unless `path` parses, its "benchmark" is `benchmark` (a gate
  // given another harness's file fails), and every row is an object with a
  // string name.
  static Result<Baseline> Load(const std::string& path, const std::string& benchmark,
                               std::string rows_key, std::string name_key) {
    std::ifstream in(path);
    if (!in) {
      return Status::NotFound("cannot read baseline " + path);
    }
    std::stringstream text;
    text << in.rdbuf();
    Result<JsonValue> doc = ParseJson(text.str());
    if (!doc.ok()) {
      return Status::InvalidArgument("baseline " + path + ": " + doc.status().message());
    }
    const JsonValue* name = doc->Find("benchmark");
    if (name == nullptr || name->kind() != JsonValue::Kind::kString || name->text() != benchmark) {
      return Status::InvalidArgument("baseline " + path + " is not a report of benchmark '" +
                                     benchmark + "'");
    }
    const JsonValue* rows = doc->Find(rows_key);
    bool rows_ok = rows != nullptr && rows->kind() == JsonValue::Kind::kArray;
    for (std::size_t i = 0; rows_ok && i < rows->items().size(); ++i) {
      const JsonValue* row_name = rows->items()[i].Find(name_key);
      rows_ok = row_name != nullptr && row_name->kind() == JsonValue::Kind::kString;
    }
    if (!rows_ok) {
      return Status::InvalidArgument("baseline " + path + " has no '" + rows_key +
                                     "' array of rows named by '" + name_key + "'");
    }
    Baseline baseline;
    baseline.path_ = path;
    baseline.doc_ = *std::move(doc);
    baseline.rows_key_ = std::move(rows_key);
    baseline.name_key_ = std::move(name_key);
    return baseline;
  }

  // The row named `name`, holding each gated field with its kind; an error
  // naming the missing row or field otherwise.  Rows the run did not
  // produce are never looked at, so a run over a subset of sizes passes.
  Result<const JsonValue*> Row(
      const std::string& name,
      std::initializer_list<std::pair<const char*, JsonValue::Kind>> fields) const {
    for (const JsonValue& row : doc_.Find(rows_key_)->items()) {
      if (row.Find(name_key_)->text() != name) {
        continue;
      }
      for (const auto& [field, kind] : fields) {
        const JsonValue* value = row.Find(field);
        if (value == nullptr || value->kind() != kind) {
          return Status::InvalidArgument(name + ": baseline " + path_ + " has no " +
                                         (kind == JsonValue::Kind::kString ? "string" : "number") +
                                         " field '" + field + "'");
        }
      }
      return &row;
    }
    return Status::NotFound(name + " has no row in baseline " + path_);
  }

 private:
  std::string path_;
  JsonValue doc_;
  std::string rows_key_;
  std::string name_key_;
};

// The exact-counter gate: prints a failure and returns false when `count`
// exceeds the row's committed `field`, or the committed value is no count.
inline bool CountWithinBaseline(const JsonValue& row, const std::string& label,
                                const char* field, std::uint64_t count) {
  const std::string& base = row.Find(field)->text();
  const Result<std::uint64_t> pinned = ParseU64(base);
  if (!pinned.ok()) {
    std::fprintf(stderr, "FAIL: %s baseline %s '%s' is not a count\n", label.c_str(), field,
                 base.c_str());
    return false;
  }
  if (count > *pinned) {
    std::fprintf(stderr, "FAIL: %s %s %llu, baseline %llu\n", label.c_str(), field,
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(*pinned));
    return false;
  }
  return true;
}

}  // namespace silod::bench

#endif  // SILOD_BENCH_BENCH_UTIL_H_
