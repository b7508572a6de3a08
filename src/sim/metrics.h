// Simulation metrics: the quantities the paper's evaluation reports.
//
//   - per-job JCT and its distribution (Fig. 10b);
//   - average JCT and makespan (Table 6, Fig. 10a, Fig. 12);
//   - total / ideal throughput and remote-IO usage over time (Fig. 9, 11);
//   - the Gavel fairness ratio over time (Fig. 13);
//   - effective vs allocated cache over time (Fig. 8).
#ifndef SILOD_SRC_SIM_METRICS_H_
#define SILOD_SRC_SIM_METRICS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/common/text_codec.h"
#include "src/common/units.h"
#include "src/fault/fault_plan.h"
#include "src/sched/allocation.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"

namespace silod {

struct JobResult {
  JobId id = kInvalidJob;
  Seconds submit_time = 0;
  Seconds first_start_time = -1;
  Seconds finish_time = -1;
  std::string tenant;    // From the spec; empty when the trace is untenanted.
  std::string gpu_type;  // Last GPU type held; empty on uniform fleets.

  Seconds Jct() const { return finish_time - submit_time; }
  // Queueing delay: submit to first GPU grant.  A job that finished without
  // ever starting (cancellation) spent its whole JCT waiting.
  Seconds QueueDelay() const {
    return first_start_time >= 0 ? first_start_time - submit_time : Jct();
  }
};

// Per-phase event counters from the fine engine's stepping loop.  These make
// performance regressions observable: `steps` bounds wall time, the per-phase
// completion counts say which events fired, and `calendar_updates` measures
// indexing work.  All of them are deterministic, so ResultDigest pins them
// with the physics, all but flow_visits and peak_block_slots, which
// bench_engine_scaling gates on their own.
struct EngineStepCounters {
  std::uint64_t steps = 0;             // Main-loop iterations.
  std::uint64_t miss_completions = 0;  // Remote fetches finished.
  std::uint64_t hit_completions = 0;   // Cache-hit fetches finished.
  std::uint64_t unblocks = 0;          // Prefetch-window gates lifted.
  std::uint64_t drains = 0;            // Jobs whose final compute drained.
  std::uint64_t reschedules = 0;       // Scheduler invocations.
  std::uint64_t flow_recomputes = 0;   // Max-min share recomputations.
  std::uint64_t flow_rate_changes = 0; // Jobs whose fluid rate actually changed.
  std::uint64_t calendar_updates = 0;  // Heap refreshes (event-calendar path).
  // Jobs whose rate a flow recompute evaluated: an exact work count, kept
  // out of ResultDigest so that the digest pins results, not this cost.
  std::uint64_t flow_visits = 0;
  // The most per-block slots held at once: epoch-order entries plus
  // CacheManager generation slots.  Also kept out of ResultDigest.
  std::uint64_t peak_block_slots = 0;
};

struct SimResult {
  std::vector<JobResult> jobs;
  Seconds makespan = 0;

  TimeSeries total_throughput;       // Sum of running jobs' actual rates.
  TimeSeries ideal_throughput;       // Sum of running jobs' f*.
  TimeSeries remote_io_usage;        // Aggregate egress consumption.
  TimeSeries fairness_ratio;         // min_j actual / equal-share (Eq. 8 value).
  TimeSeries effective_cache_ratio;  // Effective / allocated cache (Fig. 8).

  EngineStepCounters steps;          // Fine engine only; zeros otherwise.
  FaultStats faults;                 // What the engine injected from SimConfig::faults.

  double AvgJctSeconds() const;
  double AvgJctMinutes() const { return AvgJctSeconds() / 60.0; }
  double MakespanMinutes() const { return makespan / 60.0; }
  SampleSet JctSamplesMinutes() const;
  // Time-averaged fairness ratio over the whole run.
  double AvgFairness() const;
};

// One finished job's contribution to a JctSummary: total JCT and its
// queueing-delay component, both in minutes.
struct JctSample {
  double jct_min = 0;
  double queue_min = 0;
};

// The structured JCT summary (report_version 2): distribution percentiles by
// linear interpolation (SampleSet::Percentile, so p50 equals the old median
// bit-for-bit) plus the queueing-delay vs run-time split of the average.
// When finished == 0 every statistic stays NaN and serializes as JSON null —
// an empty run is reported as "no samples", never as zero minutes.
struct JctSummary {
  int finished = 0;
  double avg_jct_min = std::numeric_limits<double>::quiet_NaN();
  double p50_jct_min = std::numeric_limits<double>::quiet_NaN();
  double p90_jct_min = std::numeric_limits<double>::quiet_NaN();
  double p95_jct_min = std::numeric_limits<double>::quiet_NaN();
  double p99_jct_min = std::numeric_limits<double>::quiet_NaN();
  double avg_queue_min = std::numeric_limits<double>::quiet_NaN();
  double avg_run_min = std::numeric_limits<double>::quiet_NaN();

  // A JSON object; NaN fields (finished == 0) render as null.
  JsonValue ToJson() const;
};

// A named sub-population's summary (one tenant, or one GPU type).
struct TenantSummary {
  std::string name;
  JctSummary jct;
};

// One run's report: the shared summary every front end serializes the same
// way.  silod_sim and the bench harnesses build one from a SimResult with
// MakeRunReport; RtCluster runs go through rt/rt_cluster.h's MakeRtRunReport;
// silodd builds one in ServiceState::Report.  One schema, written by the
// one JSON writer in common/text_codec.h.
struct RunReport {
  std::string label;   // Policy name or a free-form cell label.
  std::string engine;  // "flow" | "fine" | "rt" | "serve".
  int jobs = 0;
  int unfinished_jobs = 0;  // Jobs with no finish time when the run ended.
  JctSummary jct;
  // Sub-summaries, sorted by name; empty (and omitted from the JSON) when
  // the run has no tenants / no GPU types.  Each finished job lands in
  // exactly one group of each non-empty breakdown, so the groups' `finished`
  // counts sum to jct.finished.
  std::vector<TenantSummary> tenants;
  std::vector<TenantSummary> gpu_types;
  double makespan_min = 0;
  double avg_fairness = 0;
  FaultStats faults;

  // Extra scalar fields appended after the fixed ones, in insertion order.
  // Doubles render with %.6g; counters go through the integer overload, which
  // stays exact past 1e6.
  std::vector<std::pair<std::string, JsonValue>> extra;
  void AddExtra(const std::string& key, double value);
  void AddExtra(const std::string& key, std::int64_t value);
  void AddExtra(const std::string& key, const std::string& value);
  void AddExtra(const std::string& key, bool value);

  // A JSON object with "report_version": 2 leading.
  JsonValue ToJson() const;
};

RunReport MakeRunReport(std::string label, std::string engine, const SimResult& result);

// Fills a JCT summary from finished jobs' samples.  The one assembly every
// report builder shares — MakeRunReport here, rt/rt_cluster.h's
// MakeRtRunReport, and silodd's Report — so the summary statistics cannot
// drift between front ends.  Leaves the summary's NaN defaults in place when
// `samples` is empty.
void FillJctSummary(const std::vector<JctSample>& samples, JctSummary* summary);

// Groups finished jobs by key (empty keys fold into "-") and fills one
// summary per distinct key, sorted by name.  Returns an empty vector — the
// "omit the breakdown" signal — when every key is empty.
std::vector<TenantSummary> GroupJctSummaries(
    const std::vector<JobResult>& jobs,
    const std::string& (*key)(const JobResult&));

// One benchmark document, newline-terminated: {"benchmark": <name>, the
// members of the `header` object, "runs": [...]}.
std::string ReportsToJson(const std::string& benchmark, const JsonValue& header,
                          const std::vector<RunReport>& runs);

// True when two results agree bit-for-bit on every physical quantity: per-job
// submit/start/finish times, makespan, and all time series.  Step counters are
// deliberately excluded.
bool PhysicallyIdentical(const SimResult& a, const SimResult& b);

// FNV-1a (common/digest.h) over the bits of what a run reports about its
// jobs, faults and stepping: each job's id and start/finish times, every
// FaultStats field (windows and per-zone losses included) and the step
// counters.  Committed digests of seeded runs pin the fine engine's event
// stepping and both engines' fault paths bit-for-bit.
std::uint64_t ResultDigest(const SimResult& result);

// What one running job adds to a rate sample.
struct JobRates {
  const JobSpec* spec = nullptr;
  double speed = 1.0;         // Speed factor of the held GPU type.
  BytesPerSec rate = 0;       // Actual throughput.
  BytesPerSec remote_io = 0;  // Egress drawn.
  double effective = 0;       // Effective cache bytes.
  double quota = 0;           // Allocated cache bytes; 0 when none.
};

// Incremental collector driven by the engines.
class MetricsCollector {
 public:
  void OnSubmit(const JobSpec& job);
  void OnStart(JobId job, Seconds t);
  // Records the GPU type (index into topology.gpu_types(); -1, a uniform
  // fleet, records nothing) a plan placed the job on, for the run report's
  // per-type breakdown.  The last held type wins when a preemptive plan
  // migrates the job.
  void OnAssign(JobId job, int gpu_type, const ClusterTopology& topology);
  void OnFinish(JobId job, Seconds t);

  // Rate sample valid from time t until the next call, from the running
  // jobs' rates in ascending id: throughput, ideal throughput (f* at each
  // job's speed), egress plus
  // `extra_io`, the Eq. 8 fairness minimum over an equal share among them,
  // and effective over allocated cache.
  void OnRates(Seconds t, const std::vector<JobRates>& jobs, BytesPerSec extra_io,
               const ClusterResources& resources, const DatasetCatalog& catalog);

  SimResult Finalize() const;
  bool AllFinished() const;
  std::size_t finished_count() const { return finished_; }

 private:
  std::vector<JobResult> jobs_;  // Indexed by JobId.
  std::size_t finished_ = 0;
  Seconds last_finish_ = 0;
  SimResult series_;
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_METRICS_H_
