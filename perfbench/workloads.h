// The benchmark's three workloads (README.md says why each exists).
//
//   flow400-gavel-churn  flow engine, 400 GPUs, gavel+silod, 4 racks, churn
//   fine-busy400-fifo    fine engine, 400 GPUs, fifo+silod, busy short jobs
//   serve-replay-sjf     silodd (sjf+silod, journal) over one Unix socket
//
// A run's inputs are kTracesPerRun traces drawn from its seed.  The run
// repeats set-up + measured work on them round-robin until its time budget
// is spent, and reports each metric's interquartile mean over the traces of
// its median over that trace's repetitions: the per-trace medians damp
// timing noise, the several traces the input variance of any single trace.
// Every timing is scaled to the reference host speed measured around its
// repetition (ReferenceKernelSeconds), so that a shared host slowing down
// for minutes does not read as a slower program.  An untraced run
// reports the end-to-end metrics; a traced run alternates untraced and
// traced repetitions and reports the per-layer metrics plus the tracing
// overhead.  Every repetition checks the program's outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

class Tracer;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // Measuring budget; at least two repetitions run.
  bool trace = false;
  // Trace size; 0 = the workload's default (tests pass tiny sizes).
  int jobs = 0;
  std::string silodd;              // The daemon binary (serve-replay-sjf).
  std::string run_dir = ".bench_run";  // Sockets, journals and span files.
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  std::vector<std::string> notes;  // Human-readable lines: checks, sample counts.

  void Fail(const std::string& why);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end / per-layer metric, in the order the result line prints
// them.  BENCHMARK.json lists the same names (perfbench_test checks it).
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

inline constexpr int kTracesPerRun = 16;

// The seed of trace `trace` (0-based) of the run seeded `seed`.
std::uint64_t TraceSeed(std::uint64_t seed, int trace);

// The reference kernel's time on the host the benchmark was calibrated on
// (a 4-core Intel Xeon VM at 2.1 GHz, uncontended).
inline constexpr double kReferenceKernelSeconds = 0.045;

// Runs the reference kernel once and returns its wall time: random finds,
// inserts and erases on a map of up to 50k keys, about 3 MB of nodes, so it
// slows down with the caches and memory a shared host takes from the
// program.  Its nodes come from a pool kept across calls, so the program's
// heap does not change its time.
double ReferenceKernelSeconds();

// What one repetition reports: its metrics, and in an end-to-end run the
// write and read latency samples (microseconds) behind write_p50_us,
// write_p99_us, read_p50_us and read_p99_us.
struct RepOutput {
  MetricSet metrics;
  std::vector<double> write_us;
  std::vector<double> read_us;
};

// Calls rep(trace) round-robin over the run's traces until each trace ran
// once and options.seconds have passed, or a check failed.  The reference
// kernel runs twice before and twice after each call, and the call's times
// are scaled by kReferenceKernelSeconds over the median of those four
// (MetricSet::ScaleTimes; the factor is reported as host.speed).  Returns
// the interquartile mean over traces of each metric's median over that
// trace's calls, except the four latency percentiles: those are taken over
// the scaled samples of every call, and a note says which percentile the
// p99s are and over how many samples (TailPercentile may lower it).
MetricSet RepeatOverTraces(const RunOptions& options, RunOutput* out,
                           const std::function<RepOutput(int)>& rep);

// Writes the traced run's spans to <run_dir>/spans-<workload>.jsonl.
void WriteSpans(const RunOptions& options, const Tracer& tracer, RunOutput* out);

// Runs one workload; unknown names are a failed run.
RunOutput RunWorkload(const RunOptions& options);

// Per-workload entry points (RunWorkload dispatches).
RunOutput RunEngineWorkload(const RunOptions& options);
RunOutput RunServeWorkload(const RunOptions& options);

// Peak resident set of this process (VmHWM), in MB, and its reset to the
// current resident set, so each repetition reports its own peak.
double SelfPeakRssMb();
void ResetSelfPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
