// flow400-gavel-churn and fine-busy400-fifo: one trace through one engine.
#include <algorithm>
#include <chrono>
#include <memory>

#include "metrics.h"
#include "src/common/logging.h"
#include "src/common/topology.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/fault/fault_plan.h"
#include "timed_scheduler.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using silod::Days;
using silod::Hours;
using silod::Minutes;

// The §7.2 cluster: 400 V100, 30 TB cache on 100 servers, 32 Gbps egress.
silod::SimConfig Cluster400() {
  silod::SimConfig config;
  config.resources.total_gpus = 400;
  config.resources.total_cache = silod::TB(30);
  config.resources.remote_io = silod::Gbps(32);
  config.resources.num_servers = 100;
  config.reschedule_period = Minutes(10);
  return config;
}

struct EngineInputs {
  silod::Trace trace;
  silod::ExperimentConfig config;
  double trace_gen_s = 0;
};

// Set-up: trace generation, and for the churn workload the topology parse
// and fault-plan generation.  Everything derives from `seed`.
EngineInputs Setup(const RunOptions& options, int trace_index) {
  const std::uint64_t seed = TraceSeed(options.seed, trace_index);
  const bool churn = options.workload == "flow400-gavel-churn";
  EngineInputs in;
  silod::TraceOptions trace;
  if (churn) {
    // Trace400Options' Philly-like durations, with arrivals 4x faster and
    // the tail capped at 12 h, so that most solves see a saturated cluster
    // (a short unsaturated drain would put the solve-latency median on the
    // cliff between the two regimes, where it jumps from seed to seed).
    trace.num_jobs = options.jobs > 0 ? options.jobs : 300;
    trace.mean_interarrival = Minutes(0.25);
    trace.median_duration = Hours(3);
    trace.duration_sigma = 1.4;
    trace.max_duration = Hours(12);
  } else {
    // Short heavy-tailed jobs arriving faster than 400 GPUs drain them, so
    // about 100 jobs are live at a reschedule on average.  The tail is
    // capped at 2 h: the 1-2% of jobs beyond it carried a fifth of a trace's
    // work, and how many a trace drew moved its wall time from seed to seed.
    trace.num_jobs = options.jobs > 0 ? options.jobs : 600;
    trace.mean_interarrival = Minutes(0.2);
    trace.median_duration = Minutes(6);
    trace.duration_sigma = 1.4;
    trace.max_duration = Hours(2);
  }
  trace.seed = seed;
  const auto gen_start = std::chrono::steady_clock::now();
  in.trace = silod::TraceGenerator(trace).Generate();
  in.trace_gen_s = SecondsSince(gen_start);

  in.config.sim = Cluster400();
  in.config.sim.seed = seed;
  if (churn) {
    in.config.policy = "gavel+silod";
    in.config.engine = silod::EngineKind::kFlow;
    silod::Result<silod::ClusterTopology> topology =
        silod::ClusterTopology::Parse("rack0=0-24;rack1=25-49;rack2=50-74;rack3=75-99");
    SILOD_CHECK(topology.ok()) << topology.status().ToString();
    in.config.sim.topology = std::move(topology).value();
    silod::FaultChurnOptions faults;
    faults.horizon = Hours(24);
    faults.server_crashes_per_hour = 1;
    faults.worker_crashes_per_hour = 1;
    faults.degrade_windows_per_hour = 0.5;
    faults.num_servers = in.config.sim.resources.num_servers;
    faults.num_jobs = trace.num_jobs;
    faults.seed = seed * 7919 + 1;
    in.config.sim.faults = silod::GenerateFaultPlan(faults);
  } else {
    in.config.policy = "fifo+silod";
    in.config.engine = silod::EngineKind::kFine;
  }
  return in;
}

struct EngineRep {
  silod::SimResult result;
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::unique_ptr<Tracer> tracer;
  std::shared_ptr<TimedScheduler> timed;
  double trace_gen_s = 0;
  std::int64_t total_blocks = 0;
  int num_jobs = 0;
};

EngineRep RunOnce(const RunOptions& options, int trace_index, bool traced) {
  EngineRep rep;
  ResetSelfPeakRss();
  const auto setup_start = std::chrono::steady_clock::now();
  EngineInputs in = Setup(options, trace_index);
  rep.setup_s = SecondsSince(setup_start);
  rep.trace_gen_s = in.trace_gen_s;
  rep.num_jobs = static_cast<int>(in.trace.jobs.size());
  for (const silod::JobSpec& spec : in.trace.jobs) {
    // The fine engine's per-job block count (FineEngine's constructor).
    const silod::Bytes block = in.trace.catalog.Get(spec.dataset).block_size;
    rep.total_blocks += std::max<std::int64_t>(1, (spec.total_bytes + block / 2) / block);
  }

  silod::Result<std::shared_ptr<silod::Scheduler>> inner =
      silod::MakeSchedulerByName(in.config.policy, in.config.scheduler_options);
  SILOD_CHECK(inner.ok()) << inner.status().ToString();
  if (traced) {
    rep.tracer = std::make_unique<Tracer>();
  }
  rep.timed = std::make_shared<TimedScheduler>(*inner, rep.tracer.get(),
                                               traced ? kCapturePoints : 0);
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan run(rep.tracer.get(), "sim.run");
    rep.result = silod::RunExperimentWith(in.trace, rep.timed, in.config);
  }
  rep.wall_s = SecondsSince(start);
  rep.peak_rss_mb = SelfPeakRssMb();
  return rep;
}

// Output checks of one repetition; returns the jobs it caught failing.
std::uint64_t Check(const RunOptions& options, const EngineRep& rep,
                    const silod::SimResult* reference, RunOutput* out) {
  std::uint64_t failed = 0;
  if (static_cast<int>(rep.result.jobs.size()) != rep.num_jobs) {
    out->Fail("result lists " + std::to_string(rep.result.jobs.size()) + " jobs, trace has " +
              std::to_string(rep.num_jobs));
    return static_cast<std::uint64_t>(rep.num_jobs);
  }
  for (const silod::JobResult& job : rep.result.jobs) {
    if (job.finish_time < 0) {
      ++failed;
    }
  }
  if (failed > 0) {
    out->Fail(std::to_string(failed) + " job(s) never finished");
  }
  if (options.workload == "fine-busy400-fifo") {
    const silod::EngineStepCounters& steps = rep.result.steps;
    const std::int64_t fetched =
        static_cast<std::int64_t>(steps.hit_completions + steps.miss_completions);
    if (fetched != rep.total_blocks) {
      out->Fail("hit + miss completions " + std::to_string(fetched) + " != trace blocks " +
                std::to_string(rep.total_blocks));
      failed = static_cast<std::uint64_t>(rep.num_jobs);
    }
  }
  if (reference != nullptr && !silod::PhysicallyIdentical(*reference, rep.result)) {
    out->Fail("a repetition of the same seed produced a different result");
    failed = static_cast<std::uint64_t>(rep.num_jobs);
  }
  return failed;
}

// The end-to-end metrics; RepeatOverTraces takes the latency percentiles
// over the write (Schedule call) and read (gap between calls) samples.
RepOutput EndToEnd(const EngineRep& rep) {
  RepOutput out;
  const TimedScheduler& timed = *rep.timed;
  MetricSet& m = out.metrics;
  m.Set("setup_s", rep.setup_s, "s");
  m.Set("wall_s", rep.wall_s, "s");
  m.Set("peak_rss_mb", rep.peak_rss_mb, "MB");
  m.Set("sim_avg_jct_min", rep.result.AvgJctMinutes(), "min");
  m.Set("req_per_s", static_cast<double>(timed.calls()) / rep.wall_s, "1/s");
  out.write_us = timed.SolveMicros();
  out.read_us = timed.GapMicros();
  return out;
}

MetricSet PerLayer(const EngineRep& rep, double untraced_wall_s) {
  MetricSet m;
  const Tracer& tracer = *rep.tracer;
  const TimedScheduler& timed = *rep.timed;
  const silod::SimResult& r = rep.result;
  const std::vector<double> solve_us = tracer.Micros("sched.solve");
  const double solve_s = tracer.TotalSeconds("sched.solve");
  const double run_s = tracer.TotalSeconds("sim.run");
  m.Set("sched.solve_calls", static_cast<double>(solve_us.size()), "count");
  m.Set("sched.solve_s", solve_s, "s");
  m.Set("sched.solve_share", solve_s / run_s, "ratio");
  m.Set("sched.solve_p50_us", Median(solve_us), "us");
  m.Set("sched.solve_p99_us", TailPercentile(solve_us, 99).value, "us");
  m.Set("sched.snapshot_jobs_mean", timed.MeanSnapshotJobs(), "jobs");

  const EstimatorTiming est = TimeEstimator(timed.captured(), rep.tracer.get(), 0.05);
  m.Set("estimator.batch_evals", static_cast<double>(est.batch_evals), "count");
  m.Set("estimator.batch_ns_per_job", est.ns_per_job, "ns");

  const double self_s = tracer.SelfSeconds("sim.run");
  m.Set("sim.self_s", self_s, "s");
  m.Set("sim.steps", static_cast<double>(r.steps.steps), "count");
  m.Set("sim.ns_per_step",
        r.steps.steps > 0 ? self_s * 1e9 / static_cast<double>(r.steps.steps) : 0, "ns");
  m.Set("sim.reschedules", static_cast<double>(timed.calls()), "count");
  m.Set("sim.flow_recomputes", static_cast<double>(r.steps.flow_recomputes), "count");
  m.Set("sim.flow_rate_changes", static_cast<double>(r.steps.flow_rate_changes), "count");
  m.Set("sim.calendar_updates", static_cast<double>(r.steps.calendar_updates), "count");

  const double hits = static_cast<double>(r.steps.hit_completions);
  const double fetches = hits + static_cast<double>(r.steps.miss_completions);
  m.Set("cache.hit_completions", hits, "count");
  m.Set("cache.miss_completions", static_cast<double>(r.steps.miss_completions), "count");
  m.Set("cache.fetches", fetches, "count");
  m.Set("cache.hit_ratio", fetches > 0 ? hits / fetches : 0, "ratio");
  m.Set("cache.effective_cache_ratio", r.effective_cache_ratio.TimeAverage(0, r.makespan),
        "ratio");

  const silod::FaultStats& f = r.faults;
  m.Set("fault.events",
        static_cast<double>(f.server_crashes + f.server_recoveries + f.worker_crashes +
                            f.worker_restarts + f.degrade_windows + f.dm_restarts),
        "count");
  m.Set("fault.bytes_lost", f.bytes_lost, "bytes");

  m.Set("workload.trace_gen_s", rep.trace_gen_s, "s");
  m.Set("trace.overhead_frac", run_s / untraced_wall_s - 1, "ratio");
  return m;
}

}  // namespace

RunOutput RunEngineWorkload(const RunOptions& options) {
  RunOutput out;
  std::vector<std::unique_ptr<silod::SimResult>> references(kTracesPerRun);
  std::unique_ptr<Tracer> last_tracer;
  out.metrics = RepeatOverTraces(options, &out, [&](int trace) {
    EngineRep plain = RunOnce(options, trace, false);
    out.attempted += static_cast<std::uint64_t>(plain.num_jobs);
    out.failed += Check(options, plain, references[trace].get(), &out);
    if (references[trace] == nullptr) {
      references[trace] = std::make_unique<silod::SimResult>(plain.result);
    }
    if (!options.trace) {
      return EndToEnd(plain);
    }
    EngineRep traced = RunOnce(options, trace, true);
    out.attempted += static_cast<std::uint64_t>(traced.num_jobs);
    out.failed += Check(options, traced, references[trace].get(), &out);
    RepOutput layers;
    layers.metrics = PerLayer(traced, plain.wall_s);
    last_tracer = std::move(traced.tracer);
    return layers;
  });
  if (last_tracer != nullptr) {
    WriteSpans(options, *last_tracer, &out);
  }
  return out;
}

}  // namespace perfbench
