#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory_resource>

#include "tracer.h"

namespace perfbench {
namespace {

// Where the reference kernel leaves its result, so it is not optimised away.
volatile double kernel_sink = 0;

}  // namespace

void RunOutput::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

std::uint64_t TraceSeed(std::uint64_t seed, int trace) {
  return seed * 1000 + static_cast<std::uint64_t>(trace);
}

double ReferenceKernelSeconds() {
  static std::pmr::unsynchronized_pool_resource pool;
  const auto start = std::chrono::steady_clock::now();
  std::pmr::map<std::uint64_t, double> map(&pool);
  std::uint64_t x = 12345;
  double sum = 0;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto it = map.find(x % 50'000);
    if (it == map.end()) {
      map.emplace(x % 50'000, static_cast<double>(i));
    } else {
      sum += it->second;
      if (i % 3 == 0) {
        map.erase(it);
      }
    }
  }
  kernel_sink = sum;
  return SecondsSince(start);
}

MetricSet RepeatOverTraces(const RunOptions& options, RunOutput* out,
                           const std::function<RepOutput(int)>& rep) {
  std::vector<std::vector<MetricSet>> reps(kTracesPerRun);
  std::vector<double> speeds;
  std::vector<double> write_us;
  std::vector<double> read_us;
  ReferenceKernelSeconds();  // Fills the kernel's node pool.
  const auto begin = std::chrono::steady_clock::now();
  int calls = 0;
  while (out->correct && (calls < kTracesPerRun || SecondsSince(begin) < options.seconds)) {
    const int trace = calls % kTracesPerRun;
    std::vector<double> kernel_s = {ReferenceKernelSeconds(), ReferenceKernelSeconds()};
    RepOutput r = rep(trace);
    kernel_s.push_back(ReferenceKernelSeconds());
    kernel_s.push_back(ReferenceKernelSeconds());
    const double speed = kReferenceKernelSeconds / Median(kernel_s);
    r.metrics.ScaleTimes(speed);
    r.metrics.Set("host.speed", speed, "ratio");
    for (const double us : r.write_us) {
      write_us.push_back(us * speed);
    }
    for (const double us : r.read_us) {
      read_us.push_back(us * speed);
    }
    speeds.push_back(speed);
    reps[static_cast<std::size_t>(trace)].push_back(std::move(r.metrics));
    ++calls;
  }
  char note[160];
  std::snprintf(note, sizeof(note),
                "host speed (reference kernel %.0f ms / measured): median %.3f, range %.3f-%.3f",
                kReferenceKernelSeconds * 1e3, Median(speeds),
                *std::min_element(speeds.begin(), speeds.end()),
                *std::max_element(speeds.begin(), speeds.end()));
  out->notes.push_back(note);
  std::vector<MetricSet> per_trace;
  for (const std::vector<MetricSet>& trace_reps : reps) {
    if (!trace_reps.empty()) {
      per_trace.push_back(MetricSet::MedianOf(trace_reps));
    }
  }
  out->notes.push_back(std::to_string(calls) + " repetition(s) over " +
                       std::to_string(kTracesPerRun) + " traces in " +
                       std::to_string(SecondsSince(begin)) + " s");
  MetricSet result = MetricSet::InterquartileMeanOf(per_trace);
  if (write_us.empty() && read_us.empty()) {
    return result;
  }
  const Percentile write_p99 = TailPercentile(write_us, 99);
  const Percentile read_p99 = TailPercentile(read_us, 99);
  result.Set("write_p50_us", Median(write_us), "us");
  result.Set("write_p99_us", write_p99.value, "us");
  result.Set("read_p50_us", Median(read_us), "us");
  result.Set("read_p99_us", read_p99.value, "us");
  std::snprintf(note, sizeof(note),
                "over every repetition: write_p99_us is p%.2f of %zu samples, read_p99_us p%.2f "
                "of %zu",
                write_p99.percentile, write_p99.samples, read_p99.percentile, read_p99.samples);
  out->notes.push_back(note);
  return result;
}

void WriteSpans(const RunOptions& options, const Tracer& tracer, RunOutput* out) {
  const std::string path = options.run_dir + "/spans-" + options.workload + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    out->Fail("cannot write " + path);
    return;
  }
  out->notes.push_back(std::to_string(tracer.spans().size()) + " spans of the last traced "
                       "repetition written to " + path);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"wall_s", "s"},          {"peak_rss_mb", "MB"},
      {"sim_avg_jct_min", "min"}, {"req_per_s", "1/s"},     {"write_p50_us", "us"},
      {"write_p99_us", "us"},    {"read_p50_us", "us"},    {"read_p99_us", "us"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"sched.solve_calls", "count"},
      {"sched.solve_s", "s"},
      {"sched.solve_share", "ratio"},
      {"sched.solve_p50_us", "us"},
      {"sched.solve_p99_us", "us"},
      {"sched.snapshot_jobs_mean", "jobs"},
      {"estimator.batch_evals", "count"},
      {"estimator.batch_ns_per_job", "ns"},
      {"sim.self_s", "s"},
      {"sim.steps", "count"},
      {"sim.ns_per_step", "ns"},
      {"sim.reschedules", "count"},
      {"sim.flow_recomputes", "count"},
      {"sim.flow_rate_changes", "count"},
      {"sim.calendar_updates", "count"},
      {"cache.hit_completions", "count"},
      {"cache.miss_completions", "count"},
      {"cache.fetches", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.effective_cache_ratio", "ratio"},
      {"fault.events", "count"},
      {"fault.bytes_lost", "bytes"},
      {"serve.handle_write_p50_us", "us"},
      {"serve.handle_write_p99_us", "us"},
      {"serve.handle_read_p99_us", "us"},
      {"serve.decode_ns_mean", "ns"},
      {"serve.encode_ns_mean", "ns"},
      {"serve.snapshot_us_p99", "us"},
      {"serve.gpu_demand_us_p99", "us"},
      {"serve.snapshot_growth", "ratio"},
      {"serve.journal_append_p50_us", "us"},
      {"serve.journal_append_p99_us", "us"},
      {"serve.journal_bytes", "bytes"},
      {"serve.full_solves", "count"},
      {"serve.delta_solves", "count"},
      {"serve.delta_reuse_ratio", "ratio"},
      {"serve.transport_us_p50", "us"},
      {"workload.trace_gen_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"host.speed", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"flow400-gavel-churn", "fine-busy400-fifo",
                                                  "serve-replay-sjf"};
  return kNames;
}

RunOutput RunWorkload(const RunOptions& options) {
  RunOutput out;
  if (options.workload == "serve-replay-sjf") {
    out = RunServeWorkload(options);
  } else if (options.workload == "flow400-gavel-churn" ||
             options.workload == "fine-busy400-fifo") {
    out = RunEngineWorkload(options);
  } else {
    out.Fail("unknown workload '" + options.workload + "'");
    return out;
  }
  // Every listed metric is printed, in list order; a layer a workload does
  // not exercise reads 0.
  MetricSet ordered;
  for (const MetricSpec& spec : options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    ordered.Set(spec.name, out.metrics.Get(spec.name), spec.unit);
  }
  out.metrics = std::move(ordered);
  return out;
}

void ResetSelfPeakRss() {
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double SelfPeakRssMb() {
  double kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
        break;
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

}  // namespace perfbench
