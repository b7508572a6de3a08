// Engine-scaling harness: events/sec of the fine engine's event-calendar
// stepping as the trace grows from 64 to 100k jobs, and the flow engine's
// wall time per job at 2048 and 8192 jobs.
//
// Each row records its event count, its flow visits (the jobs whose rate a
// flow recompute evaluated, EngineStepCounters::flow_visits), its peak
// block slots (the most epoch-order entries plus cache generation slots
// held at once, EngineStepCounters::peak_block_slots) and the ResultDigest
// (sim/metrics.h) of its run.  With --baseline=PATH the run fails (exit 1, a
// "FAIL:" line per failure) when a row has a different digest or event count
// than the committed BENCH_engine_scaling.json (exact: the simulation is
// deterministic, so any change is a change of physics or of stepping), more
// flow visits or peak block slots than committed (exact work and memory
// counters, so they hold on any host), or when its events/sec dropped by
// more than --max-regress (default 0.3).  It also fails, before or instead
// of comparing, on a baseline that does not parse or is not an
// "engine_scaling" report, on a row the baseline lacks, and on a baseline
// row without a string "digest" or a numeric "events", "flow_visits",
// "peak_block_slots" or "calendar_events_per_s".  Baseline rows the run did not produce pass.  A
// --sizes entry that is not a positive integer, or a --max-regress that is
// negative or not finite, exits 2.
//
// The flow rows ("flow/2048", "flow/8192") always run and are gated on
// their digest and on their heap allocations: this binary replaces the
// global operator new to count every allocation made during a row's run
// (scheduler, engine, metrics), and a row that allocates more often than
// committed, or whose baseline row has no numeric "allocations", fails.
// With --baseline the run also fails when the flow engine's wall time per
// job at 8192 jobs exceeds kMaxFlowGrowth times that at 2048.  Both are
// timed in the same run, so the ratio is not exposed to the host's speed the
// way an absolute bound is.
//
// The sweep recipe is deliberately frozen (ScalingTrace/ScalingCluster, seed
// 17): committed baselines stay comparable across refactors.  A separate
// "philly400" row runs a multi-week heavy-tailed trace against the fixed
// 400-GPU cluster (§7.2 shape) so queueing-heavy scaling is covered too.
// Emits BENCH_engine_scaling.json (RunReport schema, sim/metrics.h).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/digest.h"
#include "src/common/flags.h"
#include "src/common/table.h"

using namespace silod;
using namespace silod::bench;

// Heap allocations made by this process so far.  Replacing the global
// operator new (and with it new[], which calls it) counts every allocation
// of the library code this binary runs.
std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so that the compiler does not see free() meet a pointer from
// operator new in the callers it would be inlined into.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// A saturating mix: every job runs concurrently (GPUs = jobs) over its own
// partially cacheable dataset, so the miss set stays large and every event
// exercises the stepping machinery at full cluster width.  At 100k jobs the
// arrival span alone is ~35 simulated days.
Trace ScalingTrace(int num_jobs, std::uint64_t seed) {
  const ModelZoo zoo;
  Rng rng(seed);
  Trace trace;
  for (int i = 0; i < num_jobs; ++i) {
    const Bytes dataset_size = GB(1.0 + 3.0 * rng.NextDouble());
    const DatasetId d =
        trace.catalog.Add("d" + std::to_string(i), dataset_size, MB(32));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo,
                          i % 3 == 0 ? "EfficientNetB1" : "ResNet-50", 1, d, 1.0,
                          /*submit_time=*/Minutes(0.5) * i);
    job.total_bytes = static_cast<Bytes>((2.0 + 2.0 * rng.NextDouble()) *
                                         static_cast<double>(dataset_size));
    trace.jobs.push_back(job);
  }
  return trace;
}

SimConfig ScalingCluster(int num_jobs) {
  SimConfig config;
  config.resources.total_gpus = num_jobs;
  config.resources.total_cache = GB(1.2) * num_jobs;  // Partial coverage.
  config.resources.remote_io = MBps(40) * num_jobs;   // Miss fetches stay fluid.
  config.resources.num_servers = std::max(1, num_jobs / 4);
  config.reschedule_period = Minutes(10);
  return config;
}

// A §7.2-shaped row: heavy-tailed Philly-like durations against the fixed
// 400-GPU cluster, arrival span > 2 weeks.  Durations are scaled down from
// the paper's (median 3 h) so the block-granular fine engine finishes the
// sweep in seconds, preserving the heavy-tail shape.
Trace Philly400Trace(int num_jobs) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(6);
  options.duration_sigma = 1.4;
  options.max_duration = Hours(8);
  options.seed = 2;
  return TraceGenerator(options).Generate();
}

// The flow rows' recipe, `silod_sim --engine=flow --gpus=400 --seed=3
// --interarrival-min=30`: arrivals are sparse enough that the live set stays
// flat while the trace, and with it the dataset catalog (each job brings its
// own dataset), grows fourfold from 2048 to 8192 jobs.
Trace FlowScalingTrace(int num_jobs) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.mean_interarrival = Minutes(30);
  options.median_duration = Minutes(180);
  options.max_duration = Days(2);
  options.seed = 3;
  return TraceGenerator(options).Generate();
}

SimConfig FlowScalingCluster() {
  SimConfig config = Cluster96Config();
  config.resources.total_gpus = 400;
  return config;
}

constexpr int kFlowSizes[] = {2048, 8192};
// Wall time per job at 8192 jobs over that at 2048, measured in one run.
constexpr double kMaxFlowGrowth = 2.0;

struct RunStats {
  double wall_s = 0;
  std::uint64_t steps = 0;
  std::uint64_t flow_visits = 0;
  std::uint64_t peak_block_slots = 0;
  std::uint64_t allocations = 0;  // Heap allocations during the run.
  double events_per_s = 0;
};

RunStats TimeRun(const Trace& trace, const SimConfig& sim, EngineKind engine, SimResult* out) {
  ExperimentConfig config;
  config.sim = sim;
  config.engine = engine;
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  *out = RunExperiment(trace, config);
  const auto end = std::chrono::steady_clock::now();
  RunStats stats;
  stats.allocations = g_allocations.load(std::memory_order_relaxed) - allocations;
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  stats.steps = out->steps.steps;
  stats.flow_visits = out->steps.flow_visits;
  stats.peak_block_slots = out->steps.peak_block_slots;
  stats.events_per_s =
      stats.wall_s > 0 ? static_cast<double>(stats.steps) / stats.wall_s : 0;
  return stats;
}

// Best-of-N timing: the simulation is deterministic, so every repeat produces
// the same result and the fastest wall time is the least-perturbed
// measurement (shared boxes jitter single runs by 30-50%).
RunStats TimeRunBest(const Trace& trace, const SimConfig& sim, EngineKind engine, int repeats,
                     SimResult* out) {
  RunStats best = TimeRun(trace, sim, engine, out);
  for (int r = 1; r < repeats; ++r) {
    SimResult result;
    const RunStats stats = TimeRun(trace, sim, engine, &result);
    if (stats.wall_s < best.wall_s) {
      best = stats;
    }
  }
  return best;
}

// The digest gate shared by both kinds of row: prints a failure and returns
// false when `row`'s digest differs.
bool DigestMatches(const JsonValue& row, const std::string& label, const std::string& digest) {
  const std::string& base_digest = row.Find("digest")->text();
  if (base_digest != digest) {
    std::fprintf(stderr, "FAIL: %s result digest %s, baseline %s\n", label.c_str(),
                 digest.c_str(), base_digest.c_str());
    return false;
  }
  return true;
}

// Gates one row against a committed baseline: the baseline must have the
// row, its digest and event count must match exactly, its flow visits and
// peak block slots may not exceed the committed counts, and its events/sec
// may not drop by more than `max_regress`.  Prints each failure and returns
// false if there was one.
bool CheckBaseline(const Baseline& baseline, const std::string& label, const std::string& digest,
                   const std::string& events, const RunStats& stats, double max_regress) {
  const Result<const JsonValue*> row =
      baseline.Row(label, {{"digest", JsonValue::Kind::kString},
                           {"events", JsonValue::Kind::kNumber},
                           {"flow_visits", JsonValue::Kind::kNumber},
                           {"peak_block_slots", JsonValue::Kind::kNumber},
                           {"calendar_events_per_s", JsonValue::Kind::kNumber}});
  if (!row.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", row.status().message().c_str());
    return false;
  }
  bool ok = DigestMatches(**row, label, digest);
  // Exact: the number's source token against the count's decimal digits.
  const std::string& base_events = (*row)->Find("events")->text();
  if (base_events != events) {
    std::fprintf(stderr, "FAIL: %s stepped %s events, baseline %s\n", label.c_str(),
                 events.c_str(), base_events.c_str());
    ok = false;
  }
  ok = CountWithinBaseline(**row, label, "flow_visits", stats.flow_visits) && ok;
  ok = CountWithinBaseline(**row, label, "peak_block_slots", stats.peak_block_slots) && ok;
  // The reader has parsed every number token, so this parse cannot fail.
  const double base = *ParseDouble((*row)->Find("calendar_events_per_s")->text());
  if (base > 0 && stats.events_per_s < (1.0 - max_regress) * base) {
    std::fprintf(stderr, "FAIL: %s regressed: %.0f ev/s vs baseline %.0f (-%.0f%%)\n",
                 label.c_str(), stats.events_per_s, base,
                 100.0 * (1.0 - stats.events_per_s / base));
    ok = false;
  }
  return ok;
}

// Gates one flow row's digest and allocation count against the baseline,
// like CheckBaseline.
bool CheckFlowBaseline(const Baseline& baseline, const std::string& label,
                       const std::string& digest, const RunStats& stats) {
  const Result<const JsonValue*> row = baseline.Row(
      label, {{"digest", JsonValue::Kind::kString}, {"allocations", JsonValue::Kind::kNumber}});
  if (!row.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", row.status().message().c_str());
    return false;
  }
  const bool ok = DigestMatches(**row, label, digest);
  return CountWithinBaseline(**row, label, "allocations", stats.allocations) && ok;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("out", "BENCH_engine_scaling.json", "report path");
  flags.Define("sizes", "64,256,1024,4096,10000,100000", "trace sizes in jobs, comma-separated");
  flags.Define("baseline", "", "committed report to gate against (exact digests and events)");
  flags.Define("max-regress", "0.3", "allowed events/sec drop against the baseline, a fraction");
  flags.Define("repeats", "3", "best-of-N timing runs per row; N > 1 tames shared-host jitter");
  flags.Define("philly", "true", "also run the philly400 row (--no-philly skips it)");
  Status status = flags.Parse(argc, argv);
  const Result<std::vector<int>> sizes = ParseSizes(flags.GetString("sizes"));
  const Result<double> max_regress = ParseMaxRegress(flags.GetString("max-regress"));
  const Result<std::int64_t> repeats = ParseInt(flags.GetString("repeats"), 1, 1000);
  const auto keep_first_error = [&status](const auto& parsed) {
    if (status.ok() && !parsed.ok()) {
      status = parsed.status();
    }
  };
  keep_first_error(sizes);
  keep_first_error(max_regress);
  keep_first_error(repeats);
  if (status.ok() && !flags.positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" + flags.positional()[0] + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), flags.Help(argv[0]).c_str());
    return 2;
  }
  const std::string out_path = flags.GetString("out");

  std::optional<Baseline> baseline;
  if (const std::string path = flags.GetString("baseline"); !path.empty()) {
    Result<Baseline> loaded = Baseline::Load(path, "engine_scaling", "runs", "label");
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", loaded.status().message().c_str());
      return 1;
    }
    baseline = *std::move(loaded);
  }

  Table table(
      {"jobs", "events", "flow visits", "peak block slots", "allocations", "ev/s", "digest"});
  std::vector<RunReport> runs;
  bool failed = false;
  // Adds one row to the table and the report, and gates it against the
  // baseline.
  const auto record = [&](const std::string& row, RunReport report, const SimResult& result,
                          const RunStats& stats) {
    const std::string digest = FormatDigest(ResultDigest(result));
    const std::string events = std::to_string(stats.steps);
    table.AddRow({row, events, std::to_string(stats.flow_visits),
                  std::to_string(stats.peak_block_slots), "-", Fmt(stats.events_per_s), digest});
    report.AddExtra("events", static_cast<std::int64_t>(stats.steps));
    report.AddExtra("flow_visits", static_cast<std::int64_t>(stats.flow_visits));
    report.AddExtra("peak_block_slots", static_cast<std::int64_t>(stats.peak_block_slots));
    report.AddExtra("digest", digest);
    report.AddExtra("calendar_wall_s", stats.wall_s);
    report.AddExtra("calendar_events_per_s", stats.events_per_s);
    if (baseline) {
      failed = !CheckBaseline(*baseline, report.label, digest, events, stats, *max_regress) ||
               failed;
    }
    runs.push_back(std::move(report));
  };

  for (const int n : *sizes) {
    const Trace trace = ScalingTrace(n, /*seed=*/17);
    const SimConfig sim = ScalingCluster(n);

    SimResult result;
    const RunStats stats =
        TimeRunBest(trace, sim, EngineKind::kFine, static_cast<int>(*repeats), &result);
    record(std::to_string(n),
           MakeRunReport("calendar/" + std::to_string(n) + "-jobs", "fine", result), result,
           stats);
  }

  if (flags.GetBool("philly")) {
    const int n = 10000;
    const Trace trace = Philly400Trace(n);
    SimResult result;
    const RunStats stats = TimeRunBest(trace, Cluster400Config(), EngineKind::kFine,
                                       static_cast<int>(*repeats), &result);
    const Seconds span = trace.jobs.empty() ? 0 : trace.jobs.back().submit_time;
    record("philly400/" + std::to_string(n),
           MakeRunReport("philly400/" + std::to_string(n) + "-jobs", "fine", result), result,
           stats);
    runs.back().AddExtra("arrival_span_days", span / Days(1));
  }

  std::vector<double> us_per_job;
  for (const int n : kFlowSizes) {
    const Trace trace = FlowScalingTrace(n);
    SimResult result;
    const RunStats stats = TimeRunBest(trace, FlowScalingCluster(), EngineKind::kFlow,
                                       static_cast<int>(*repeats), &result);
    const std::string digest = FormatDigest(ResultDigest(result));
    us_per_job.push_back(1e6 * stats.wall_s / n);
    table.AddRow({"flow/" + std::to_string(n), "-", "-", "-", std::to_string(stats.allocations),
                  "-", digest});
    RunReport report = MakeRunReport("flow/" + std::to_string(n) + "-jobs", "flow", result);
    report.AddExtra("digest", digest);
    report.AddExtra("allocations", static_cast<std::int64_t>(stats.allocations));
    report.AddExtra("wall_s", stats.wall_s);
    report.AddExtra("wall_us_per_job", us_per_job.back());
    if (baseline) {
      failed = !CheckFlowBaseline(*baseline, report.label, digest, stats) || failed;
    }
    runs.push_back(std::move(report));
  }
  const double growth = us_per_job[1] / us_per_job[0];
  std::printf("flow wall per job, %d over %d jobs: %.2f (%.1f / %.1f us)\n", kFlowSizes[1],
              kFlowSizes[0], growth, us_per_job[1], us_per_job[0]);
  if (baseline && growth > kMaxFlowGrowth) {
    std::fprintf(stderr, "FAIL: flow wall per job grew %.2fx from %d to %d jobs, bound %.2f\n",
                 growth, kFlowSizes[0], kFlowSizes[1], kMaxFlowGrowth);
    failed = true;
  }

  table.Print();
  JsonValue header = JsonValue::Object();
  // The calendar path's throughput at 10k jobs before the arena/batching
  // rework, same recipe and seed — the denominator of the speedup this
  // harness exists to protect.
  header.Set("pre_pr_calendar_events_per_s_10k", JsonValue::Number(94581.3))
      .Set("sizes", JsonValue::String(flags.GetString("sizes")));
  std::ofstream(out_path) << ReportsToJson("engine_scaling", header, runs);
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
