// Engine-scaling harness: events/sec of the fine engine's stepping paths as
// the trace grows from 64 to 100k jobs.
//
// Two checks per sweep:
//   - the indexed event-calendar path vs the O(jobs)-scan escape hatch
//     (FineEngineOptions::use_linear_scan), bit-identity enforced (the linear
//     path is only run up to --linear-max jobs; beyond that its quadratic
//     scans dominate the harness itself);
//   - optional regression gate: --baseline=PATH --max-regress=0.3 re-reads a
//     committed BENCH_engine_scaling.json and fails if any matching size's
//     calendar events/sec dropped by more than the allowed fraction.
//
// The sweep recipe is deliberately frozen (ScalingTrace/ScalingCluster, seed
// 17): committed baselines stay comparable across refactors.  A separate
// "philly400" row runs a multi-week heavy-tailed trace against the fixed
// 400-GPU cluster (§7.2 shape) so queueing-heavy scaling is covered too.
// Emits BENCH_engine_scaling.json (RunReport schema, sim/metrics.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"

using namespace silod;
using namespace silod::bench;

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

struct PathStats {
  double wall_s = 0;
  std::uint64_t steps = 0;
  double events_per_s = 0;
};

PathStats TimeRun(const Trace& trace, const SimConfig& sim, bool linear,
                  SimResult* out) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kFifo;
  config.cache = CacheSystem::kSiloD;
  config.sim = sim;
  config.engine = EngineKind::kFine;
  config.fine.use_linear_scan = linear;
  const auto start = std::chrono::steady_clock::now();
  *out = RunExperiment(trace, config);
  const auto end = std::chrono::steady_clock::now();
  PathStats stats;
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  stats.steps = out->steps.steps;
  stats.events_per_s =
      stats.wall_s > 0 ? static_cast<double>(stats.steps) / stats.wall_s : 0;
  return stats;
}

// Best-of-N timing: the simulation is deterministic, so every repeat produces
// the same result and the fastest wall time is the least-perturbed
// measurement (shared boxes jitter single runs by 30-50%).
PathStats TimeRunBest(const Trace& trace, const SimConfig& sim, bool linear,
                      int repeats, SimResult* out) {
  PathStats best = TimeRun(trace, sim, linear, out);
  for (int r = 1; r < repeats; ++r) {
    SimResult result;
    const PathStats stats = TimeRun(trace, sim, linear, &result);
    if (stats.events_per_s > best.events_per_s) {
      best = stats;
    }
  }
  return best;
}

// Minimal targeted scan of a committed report: the calendar events/sec
// recorded for `label`, or -1 when absent.  Good enough for the flat
// RunReport JSON this harness itself writes.
double BaselineEventsPerSec(const std::string& json, const std::string& label) {
  const std::string needle = "\"label\": \"" + label + "\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    return -1;
  }
  const std::string key = "\"calendar_events_per_s\": ";
  const std::size_t key_at = json.find(key, at);
  // Stay inside this run object: the key must appear before the next label.
  const std::size_t next = json.find("\"label\": ", at + needle.size());
  if (key_at == std::string::npos || (next != std::string::npos && key_at > next)) {
    return -1;
  }
  return std::strtod(json.c_str() + key_at + key.size(), nullptr);
}

std::vector<int> ParseSizes(const std::string& spec) {
  std::vector<int> sizes;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      sizes.push_back(std::atoi(item.c_str()));
    }
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine_scaling.json";
  std::string baseline_path;
  std::string sizes_spec = "64,256,1024,4096,10000,100000";
  double max_regress = 0.3;
  int linear_max = 4096;  // Largest size the linear-scan path still runs at.
  int repeats = 3;        // Best-of-N; N > 1 tames shared-box timing jitter.
  bool philly = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::string(prefix).size();
    };
    if (arg.rfind("--out=", 0) == 0) {
      out_path = value("--out=");
    } else if (arg.rfind("--sizes=", 0) == 0) {
      sizes_spec = value("--sizes=");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      max_regress = std::atof(value("--max-regress="));
    } else if (arg.rfind("--linear-max=", 0) == 0) {
      linear_max = std::atoi(value("--linear-max="));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::max(1, std::atoi(value("--repeats=")));
    } else if (arg == "--no-philly") {
      philly = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=PATH] [--sizes=N,N,...] [--baseline=PATH] "
                   "[--max-regress=F] [--linear-max=N] [--repeats=N] [--no-philly]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::vector<int> sizes = ParseSizes(sizes_spec);

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    baseline_json = buf.str();
  }

  Table table({"jobs", "linear ev/s", "calendar ev/s", "identical"});
  std::vector<RunReport> runs;
  bool all_identical = true;
  bool regressed = false;

  for (const int n : sizes) {
    const Trace trace = ScalingTrace(n, /*seed=*/17);
    const SimConfig sim = ScalingCluster(n);

    SimResult calendar_result;
    const PathStats calendar = TimeRunBest(trace, sim, /*linear=*/false, repeats, &calendar_result);

    PathStats linear;
    bool identical = true;
    if (n <= linear_max) {
      SimResult linear_result;
      linear = TimeRunBest(trace, sim, /*linear=*/true, repeats, &linear_result);
      identical = PhysicallyIdentical(linear_result, calendar_result);
      all_identical = all_identical && identical;
    }

    const std::string label = "calendar/" + std::to_string(n) + "-jobs";
    table.AddRow({std::to_string(n),
                  n <= linear_max ? Fmt(linear.events_per_s) : std::string("-"),
                  Fmt(calendar.events_per_s), identical ? "yes" : "NO"});

    RunReport report = MakeRunReport(label, "fine", calendar_result);
    report.AddExtra("events", static_cast<double>(calendar.steps));
    report.AddExtra("calendar_wall_s", calendar.wall_s);
    report.AddExtra("calendar_events_per_s", calendar.events_per_s);
    if (n <= linear_max) {
      report.AddExtra("linear_wall_s", linear.wall_s);
      report.AddExtra("linear_events_per_s", linear.events_per_s);
      report.AddExtra("identical", identical);
    }
    runs.push_back(std::move(report));

    if (!baseline_json.empty()) {
      const double base = BaselineEventsPerSec(baseline_json, label);
      if (base > 0 && calendar.events_per_s < (1.0 - max_regress) * base) {
        std::fprintf(stderr, "FAIL: %s regressed: %.0f ev/s vs baseline %.0f (-%.0f%%)\n",
                     label.c_str(), calendar.events_per_s, base,
                     100.0 * (1.0 - calendar.events_per_s / base));
        regressed = true;
      }
    }
  }

  if (philly) {
    const int n = 10000;
    const Trace trace = Philly400Trace(n);
    SimConfig sim = Cluster400Config();
    SimResult result;
    const PathStats stats = TimeRunBest(trace, sim, /*linear=*/false, repeats, &result);
    const Seconds span = trace.jobs.empty() ? 0 : trace.jobs.back().submit_time;
    table.AddRow({"philly400/" + std::to_string(n), "-", Fmt(stats.events_per_s), "yes"});
    RunReport report = MakeRunReport("philly400/" + std::to_string(n) + "-jobs", "fine", result);
    report.AddExtra("events", static_cast<double>(stats.steps));
    report.AddExtra("calendar_wall_s", stats.wall_s);
    report.AddExtra("calendar_events_per_s", stats.events_per_s);
    report.AddExtra("arrival_span_days", span / Days(1));
    runs.push_back(std::move(report));
  }

  table.Print();
  std::vector<std::pair<std::string, std::string>> header;
  // The calendar path's throughput at 10k jobs before the arena/batching
  // rework, same recipe and seed — the denominator of the speedup this
  // harness exists to protect.
  header.emplace_back("pre_pr_calendar_events_per_s_10k", "94581.3");
  header.emplace_back("sizes", "\"" + sizes_spec + "\"");
  std::ofstream(out_path) << ReportsToJson("engine_scaling", header, runs);
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: stepping paths diverged\n");
    return 1;
  }
  if (regressed) {
    return 1;
  }
  return 0;
}
