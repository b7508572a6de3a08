#include "src/sim/serve_replay.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/text_codec.h"
#include "src/core/policy_registry.h"
#include "src/sim/flow_engine.h"

namespace silod {
namespace {

// Bit-for-bit equality for summary statistics, except that the NaN stats of
// two empty summaries (finished == 0) also count as identical.
bool BitEqual(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

std::string FormatBytes(Bytes value) { return std::to_string(value); }

}  // namespace

std::vector<ReplayEvent> BuildReplaySchedule(const Trace& trace, const SimResult& result) {
  SILOD_CHECK(result.jobs.size() == trace.jobs.size()) << "result/trace job count mismatch";
  std::vector<ReplayEvent> events;
  events.reserve(2 * trace.jobs.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    events.push_back({trace.jobs[i].submit_time, false, i});
    const JobResult& r = result.jobs[i];
    if (r.finish_time >= 0) {
      events.push_back({r.finish_time, true, i});
    }
  }
  // Completions before submissions at equal times, so freed GPUs are visible
  // to the arrival's admission check; job index breaks remaining ties, which
  // keeps daemon JobIds aligned with trace indices for monotone traces.
  std::stable_sort(events.begin(), events.end(), [](const ReplayEvent& a, const ReplayEvent& b) {
    if (a.t != b.t) {
      return a.t < b.t;
    }
    if (a.complete != b.complete) {
      return a.complete;
    }
    return a.job < b.job;
  });
  return events;
}

ServeRequest SubmitRequestFor(const Trace& trace, std::size_t job, Seconds t, std::uint64_t rid) {
  const JobSpec& spec = trace.jobs[job];
  const Dataset& dataset = trace.catalog.Get(spec.dataset);
  ServeRequest request;
  request.verb = "submit";
  request.args["key"] = "job" + std::to_string(job);
  request.args["t"] = FormatExact(t);
  request.args["gpus"] = std::to_string(spec.num_gpus);
  request.args["ideal-io"] = FormatExact(spec.ideal_io);
  request.args["total-bytes"] = FormatBytes(spec.total_bytes);
  request.args["step-bytes"] = FormatBytes(spec.step_data_size);
  request.args["dataset"] = dataset.name + "#" + std::to_string(dataset.id);
  request.args["dataset-size"] = FormatBytes(dataset.size);
  request.args["block-size"] = FormatBytes(dataset.block_size);
  request.args["model"] = spec.model;
  if (!spec.tenant.empty()) {
    request.args["tenant"] = spec.tenant;
  }
  if (!spec.speed_factors.empty()) {
    std::string speeds;
    for (const auto& [type, factor] : spec.speed_factors) {
      speeds += (speeds.empty() ? "" : ",") + type + "=" + FormatExact(factor);
    }
    request.args["speeds"] = speeds;
  }
  if (rid > 0) {
    request.args["rid"] = std::to_string(rid);
  }
  return request;
}

ServeRequest CompleteRequestFor(const Trace& trace, std::size_t job, Seconds t,
                                std::uint64_t rid) {
  (void)trace;
  ServeRequest request;
  request.verb = "complete";
  request.args["key"] = "job" + std::to_string(job);
  request.args["t"] = FormatExact(t);
  if (rid > 0) {
    request.args["rid"] = std::to_string(rid);
  }
  return request;
}

bool JctSummariesIdentical(const RunReport& a, const RunReport& b) {
  // The queueing-delay split (avg_queue_min / avg_run_min) is deliberately
  // excluded: the daemon replans only at submit/complete instants while the
  // engines also replan on epoch ticks, so first-start times can legitimately
  // differ even when every finish time — and therefore the whole JCT
  // distribution — matches bit-for-bit.
  const JctSummary& x = a.jct;
  const JctSummary& y = b.jct;
  return a.jobs == b.jobs && a.unfinished_jobs == b.unfinished_jobs &&
         x.finished == y.finished && BitEqual(x.avg_jct_min, y.avg_jct_min) &&
         BitEqual(x.p50_jct_min, y.p50_jct_min) && BitEqual(x.p90_jct_min, y.p90_jct_min) &&
         BitEqual(x.p95_jct_min, y.p95_jct_min) && BitEqual(x.p99_jct_min, y.p99_jct_min) &&
         a.makespan_min == b.makespan_min;
}

Result<ReplayOutcome> ReplayTraceThroughService(const Trace& trace, const SimConfig& config,
                                                const std::string& policy,
                                                const SchedulerOptions& scheduler_options) {
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, scheduler_options);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  FlowEngine engine(&trace, *scheduler, config);
  const SimResult result = engine.Run();

  ServiceConfig service_config;
  service_config.policy = policy;
  service_config.scheduler = scheduler_options;
  service_config.resources = config.resources;
  service_config.topology = config.topology;
  // Wide open: the batch engine has no admission gate, so the daemon must
  // let every job through to the scheduler's waiting pool.
  service_config.admission.max_gpu_load = 1e18;
  Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(service_config);
  if (!service.ok()) {
    return service.status();
  }

  for (const ReplayEvent& event : BuildReplaySchedule(trace, result)) {
    const ServeRequest request = event.complete ? CompleteRequestFor(trace, event.job, event.t)
                                                : SubmitRequestFor(trace, event.job, event.t);
    const ServeResponse response = (*service)->Handle(request);
    if (!response.ok()) {
      return Status::Internal("replay " + request.verb + " job" + std::to_string(event.job) +
                              " failed: " + response.error);
    }
  }

  ReplayOutcome outcome;
  outcome.batch = MakeRunReport(policy, "flow", result);
  outcome.serve = (*service)->Report();
  outcome.jct_identical = JctSummariesIdentical(outcome.batch, outcome.serve);
  return outcome;
}

}  // namespace silod
