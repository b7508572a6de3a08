#include "src/sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "src/common/digest.h"
#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/sched/gavel.h"

namespace silod {

double SimResult::AvgJctSeconds() const {
  if (jobs.empty()) {
    return 0;
  }
  double sum = 0;
  for (const JobResult& j : jobs) {
    SILOD_CHECK(j.finish_time >= 0) << "job " << j.id << " never finished";
    sum += j.Jct();
  }
  return sum / static_cast<double>(jobs.size());
}

SampleSet SimResult::JctSamplesMinutes() const {
  SampleSet set;
  for (const JobResult& j : jobs) {
    set.Add(j.Jct() / 60.0);
  }
  return set;
}

namespace {

bool SeriesIdentical(const TimeSeries& a, const TimeSeries& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.points()[i].first != b.points()[i].first ||
        a.points()[i].second != b.points()[i].second) {
      return false;
    }
  }
  return true;
}

// Job ids and FaultStats counters are 4-byte ints: they hash as their four
// bytes, least significant first, not widened to eight.
void HashInt32(Fnv1a64& h, std::int32_t value) {
  const auto bits = static_cast<std::uint32_t>(value);
  const unsigned char bytes[4] = {
      static_cast<unsigned char>(bits), static_cast<unsigned char>(bits >> 8),
      static_cast<unsigned char>(bits >> 16), static_cast<unsigned char>(bits >> 24)};
  h.Bytes(bytes, sizeof(bytes));
}

}  // namespace

bool PhysicallyIdentical(const SimResult& a, const SimResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan != b.makespan) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobResult& x = a.jobs[i];
    const JobResult& y = b.jobs[i];
    if (x.id != y.id || x.submit_time != y.submit_time ||
        x.first_start_time != y.first_start_time || x.finish_time != y.finish_time) {
      return false;
    }
  }
  return SeriesIdentical(a.total_throughput, b.total_throughput) &&
         SeriesIdentical(a.ideal_throughput, b.ideal_throughput) &&
         SeriesIdentical(a.remote_io_usage, b.remote_io_usage) &&
         SeriesIdentical(a.fairness_ratio, b.fairness_ratio) &&
         SeriesIdentical(a.effective_cache_ratio, b.effective_cache_ratio);
}

std::uint64_t ResultDigest(const SimResult& r) {
  Fnv1a64 h;
  for (const JobResult& j : r.jobs) {
    HashInt32(h, j.id);
    h.Double(j.first_start_time);
    h.Double(j.finish_time);
  }
  const FaultStats& f = r.faults;
  for (const int n : {f.server_crashes, f.server_recoveries, f.worker_crashes, f.worker_restarts,
                      f.degrade_windows, f.dm_restarts, f.ignored_events}) {
    HashInt32(h, n);
  }
  h.U64(static_cast<std::uint64_t>(f.blocks_lost));
  h.Double(f.bytes_lost);
  h.U64(f.blocks_lost_by_zone.size());
  for (const auto& [zone, blocks] : f.blocks_lost_by_zone) {
    h.String(zone);
    h.U64(static_cast<std::uint64_t>(blocks));
  }
  h.U64(static_cast<std::uint64_t>(f.blocks_refetched));
  h.Double(f.bytes_refetched);
  h.Double(f.compute_lost);
  h.U64(f.windows.size());
  for (const FaultStats::Window& w : f.windows) {
    h.String(w.label);
    h.Double(w.start);
    h.Double(w.end);
    h.Double(w.avg_throughput);
  }
  const EngineStepCounters& s = r.steps;
  for (const std::uint64_t n : {s.steps, s.miss_completions, s.hit_completions, s.unblocks,
                                s.drains, s.reschedules, s.flow_recomputes, s.flow_rate_changes,
                                s.calendar_updates}) {
    h.U64(n);
  }
  return h.hash();
}

double SimResult::AvgFairness() const {
  if (fairness_ratio.empty() || makespan <= 0) {
    return 0;
  }
  return fairness_ratio.TimeAverage(0, makespan);
}

namespace {

JsonValue FaultsToJson(const FaultStats& f) {
  JsonValue by_zone = JsonValue::Object(/*one_line=*/true);
  for (const auto& [zone, blocks] : f.blocks_lost_by_zone) {
    by_zone.Set(zone, JsonValue::Int(blocks));
  }
  JsonValue json = JsonValue::Object();
  json.Set("server_crashes", JsonValue::Int(f.server_crashes))
      .Set("server_recoveries", JsonValue::Int(f.server_recoveries))
      .Set("worker_crashes", JsonValue::Int(f.worker_crashes))
      .Set("worker_restarts", JsonValue::Int(f.worker_restarts))
      .Set("degrade_windows", JsonValue::Int(f.degrade_windows))
      .Set("dm_restarts", JsonValue::Int(f.dm_restarts))
      .Set("ignored_events", JsonValue::Int(f.ignored_events))
      .Set("blocks_lost", JsonValue::Int(f.blocks_lost))
      .Set("bytes_lost", JsonValue::Number(f.bytes_lost))
      .Set("blocks_refetched", JsonValue::Int(f.blocks_refetched))
      .Set("compute_lost", JsonValue::Number(f.compute_lost))
      .Set("blocks_lost_by_zone", std::move(by_zone));
  return json;
}

JsonValue TenantSummariesToJson(const std::vector<TenantSummary>& groups) {
  JsonValue json = JsonValue::Object();
  for (const TenantSummary& group : groups) {
    json.Set(group.name, group.jct.ToJson());
  }
  return json;
}

}  // namespace

void RunReport::AddExtra(const std::string& key, double value) {
  extra.emplace_back(key, JsonValue::Number(value));
}

void RunReport::AddExtra(const std::string& key, std::int64_t value) {
  extra.emplace_back(key, JsonValue::Int(value));
}

void RunReport::AddExtra(const std::string& key, const std::string& value) {
  extra.emplace_back(key, JsonValue::String(value));
}

void RunReport::AddExtra(const std::string& key, bool value) {
  extra.emplace_back(key, JsonValue::Bool(value));
}

JsonValue JctSummary::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("finished", JsonValue::Int(finished))
      .Set("avg_jct_min", JsonValue::Number(avg_jct_min))
      .Set("p50_jct_min", JsonValue::Number(p50_jct_min))
      .Set("p90_jct_min", JsonValue::Number(p90_jct_min))
      .Set("p95_jct_min", JsonValue::Number(p95_jct_min))
      .Set("p99_jct_min", JsonValue::Number(p99_jct_min))
      .Set("avg_queue_min", JsonValue::Number(avg_queue_min))
      .Set("avg_run_min", JsonValue::Number(avg_run_min));
  return json;
}

JsonValue RunReport::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("report_version", JsonValue::Int(2))
      .Set("label", JsonValue::String(label))
      .Set("engine", JsonValue::String(engine))
      .Set("jobs", JsonValue::Int(jobs))
      .Set("unfinished_jobs", JsonValue::Int(unfinished_jobs))
      .Set("jct", jct.ToJson());
  if (!tenants.empty()) {
    json.Set("tenants", TenantSummariesToJson(tenants));
  }
  if (!gpu_types.empty()) {
    json.Set("gpu_types", TenantSummariesToJson(gpu_types));
  }
  json.Set("makespan_min", JsonValue::Number(makespan_min))
      .Set("avg_fairness", JsonValue::Number(avg_fairness))
      .Set("faults", FaultsToJson(faults));
  for (const auto& [key, value] : extra) {
    json.Set(key, value);
  }
  return json;
}

void FillJctSummary(const std::vector<JctSample>& samples, JctSummary* summary) {
  SILOD_CHECK(summary != nullptr) << "summary required";
  summary->finished = static_cast<int>(samples.size());
  if (samples.empty()) {
    return;  // NaN defaults stand: the summary says finished=0, stats null.
  }
  SampleSet jct;
  double sum = 0;
  double queue_sum = 0;
  for (const JctSample& s : samples) {
    jct.Add(s.jct_min);
    sum += s.jct_min;
    queue_sum += s.queue_min;
  }
  const double n = static_cast<double>(samples.size());
  summary->avg_jct_min = sum / n;
  summary->p50_jct_min = jct.Percentile(50);
  summary->p90_jct_min = jct.Percentile(90);
  summary->p95_jct_min = jct.Percentile(95);
  summary->p99_jct_min = jct.Percentile(99);
  summary->avg_queue_min = queue_sum / n;
  summary->avg_run_min = summary->avg_jct_min - summary->avg_queue_min;
}

namespace {

JctSample SampleOf(const JobResult& j) {
  JctSample s;
  s.jct_min = j.Jct() / 60.0;
  s.queue_min = j.QueueDelay() / 60.0;
  return s;
}

}  // namespace

std::vector<TenantSummary> GroupJctSummaries(
    const std::vector<JobResult>& jobs,
    const std::string& (*key)(const JobResult&)) {
  std::map<std::string, std::vector<JctSample>> buckets;
  bool any_named = false;
  for (const JobResult& j : jobs) {
    if (j.finish_time < 0) {
      continue;
    }
    const std::string& k = key(j);
    any_named = any_named || !k.empty();
    buckets[k.empty() ? "-" : k].push_back(SampleOf(j));
  }
  std::vector<TenantSummary> groups;
  if (!any_named) {
    return groups;  // Homogeneous population: omit the breakdown.
  }
  groups.reserve(buckets.size());
  for (const auto& [name, samples] : buckets) {
    TenantSummary group;
    group.name = name;
    FillJctSummary(samples, &group.jct);
    groups.push_back(std::move(group));
  }
  return groups;
}

RunReport MakeRunReport(std::string label, std::string engine, const SimResult& result) {
  RunReport report;
  report.label = std::move(label);
  report.engine = std::move(engine);
  report.jobs = static_cast<int>(result.jobs.size());
  std::vector<JctSample> samples;
  samples.reserve(result.jobs.size());
  for (const JobResult& j : result.jobs) {
    if (j.finish_time < 0) {
      ++report.unfinished_jobs;
      continue;
    }
    samples.push_back(SampleOf(j));
  }
  FillJctSummary(samples, &report.jct);
  report.tenants = GroupJctSummaries(
      result.jobs, +[](const JobResult& j) -> const std::string& { return j.tenant; });
  report.gpu_types = GroupJctSummaries(
      result.jobs, +[](const JobResult& j) -> const std::string& { return j.gpu_type; });
  report.makespan_min = result.MakespanMinutes();
  report.avg_fairness = result.AvgFairness();
  report.faults = result.faults;
  return report;
}

std::string ReportsToJson(const std::string& benchmark, const JsonValue& header,
                          const std::vector<RunReport>& runs) {
  JsonValue json = JsonValue::Object();
  json.Set("benchmark", JsonValue::String(benchmark));
  for (const auto& [key, value] : header.members()) {
    json.Set(key, value);
  }
  JsonValue array = JsonValue::Array();
  for (const RunReport& run : runs) {
    array.Push(run.ToJson());
  }
  json.Set("runs", std::move(array));
  return json.Format() + "\n";
}

void MetricsCollector::OnSubmit(const JobSpec& job) {
  if (static_cast<std::size_t>(job.id) >= jobs_.size()) {
    jobs_.resize(static_cast<std::size_t>(job.id) + 1);
  }
  JobResult& r = jobs_[static_cast<std::size_t>(job.id)];
  r.id = job.id;
  r.submit_time = job.submit_time;
  r.tenant = job.tenant;
}

void MetricsCollector::OnStart(JobId job, Seconds t) {
  SILOD_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size()) << "unknown job " << job;
  JobResult& r = jobs_[static_cast<std::size_t>(job)];
  if (r.first_start_time < 0) {
    r.first_start_time = t;
  }
}

void MetricsCollector::OnAssign(JobId job, int gpu_type, const ClusterTopology& topology) {
  SILOD_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size()) << "unknown job " << job;
  if (gpu_type >= 0) {
    jobs_[static_cast<std::size_t>(job)].gpu_type =
        topology.gpu_types()[static_cast<std::size_t>(gpu_type)].name;
  }
}

void MetricsCollector::OnFinish(JobId job, Seconds t) {
  SILOD_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size()) << "unknown job " << job;
  JobResult& r = jobs_[static_cast<std::size_t>(job)];
  SILOD_CHECK(r.finish_time < 0) << "job " << job << " finished twice";
  r.finish_time = t;
  ++finished_;
  last_finish_ = std::max(last_finish_, t);
}

void MetricsCollector::OnRates(Seconds t, const std::vector<JobRates>& jobs,
                               BytesPerSec extra_io, const ClusterResources& resources,
                               const DatasetCatalog& catalog) {
  // The equal-share denominator depends only on the cluster and the sharer
  // count: one evaluation per sample, not a Snapshot per job.
  const EqualShareParams eq_params =
      MakeEqualShareParams(resources, std::max(1, static_cast<int>(jobs.size())));
  BytesPerSec total = 0;
  BytesPerSec ideal = 0;
  BytesPerSec io = 0;
  double fairness = std::numeric_limits<double>::infinity();
  double eff_num = 0;
  double eff_den = 0;
  for (const JobRates& j : jobs) {
    total += j.rate;
    ideal += EffectiveIdeal(j.spec->ideal_io, j.speed);
    io += j.remote_io;
    const BytesPerSec eq = EqualShareThroughput(*j.spec, j.speed, catalog, eq_params);
    if (eq > 0) {
      fairness = std::min(fairness, j.rate / eq);
    }
    eff_num += std::min(j.effective, j.quota);
    eff_den += j.quota;
  }
  series_.total_throughput.Record(t, total);
  series_.ideal_throughput.Record(t, ideal);
  series_.remote_io_usage.Record(t, io + extra_io);
  series_.fairness_ratio.Record(t, std::isfinite(fairness) ? fairness : 0);
  series_.effective_cache_ratio.Record(t, eff_den > 0 ? eff_num / eff_den : 1.0);
}

bool MetricsCollector::AllFinished() const { return finished_ == jobs_.size(); }

SimResult MetricsCollector::Finalize() const {
  SimResult result = series_;
  result.jobs = jobs_;
  result.makespan = last_finish_;
  return result;
}

}  // namespace silod
