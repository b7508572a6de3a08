#include "timed_scheduler.h"

#include <utility>

#include "metrics.h"
#include "src/estimator/ioperf.h"

namespace perfbench {

TimedScheduler::TimedScheduler(std::shared_ptr<silod::Scheduler> inner, Tracer* tracer,
                               std::size_t capture_points)
    : inner_(std::move(inner)), tracer_(tracer), capture_budget_(capture_points) {}

silod::AllocationPlan TimedScheduler::Schedule(const silod::Snapshot& snapshot) {
  if (capture_budget_ >= snapshot.jobs.size() && !snapshot.jobs.empty()) {
    std::vector<OperatingPoint> points;
    points.reserve(snapshot.jobs.size());
    for (const silod::JobView& view : snapshot.jobs) {
      points.push_back(OperatingPoint{view.spec->ideal_io, view.speed, view.effective_cache,
                                      snapshot.catalog->Get(view.spec->dataset).size});
    }
    capture_budget_ -= points.size();
    captured_.push_back(std::move(points));
  }
  snapshot_jobs_ += snapshot.jobs.size();
  const std::int64_t start = NowNs();
  silod::AllocationPlan plan = inner_->Schedule(snapshot);
  const std::int64_t end = NowNs();
  start_ns_.push_back(start);
  end_ns_.push_back(end);
  if (tracer_ != nullptr) {
    tracer_->Record("sched.solve", start, end);
  }
  return plan;
}

std::vector<double> TimedScheduler::SolveMicros() const {
  std::vector<double> out(start_ns_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(end_ns_[i] - start_ns_[i]) * 1e-3;
  }
  return out;
}

std::vector<double> TimedScheduler::GapMicros() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < start_ns_.size(); ++i) {
    out.push_back(static_cast<double>(start_ns_[i] - end_ns_[i - 1]) * 1e-3);
  }
  return out;
}

double TimedScheduler::MeanSnapshotJobs() const {
  return calls() == 0 ? 0 : static_cast<double>(snapshot_jobs_) / static_cast<double>(calls());
}

EstimatorTiming TimeEstimator(const std::vector<std::vector<OperatingPoint>>& snapshots,
                              Tracer* tracer, double min_seconds) {
  EstimatorTiming timing;
  std::vector<silod::EstimatorBatch> batches(snapshots.size());
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (const OperatingPoint& p : snapshots[s]) {
      batches[s].Add(p.ideal, p.speed, p.cache, p.dataset);
    }
    timing.jobs += snapshots[s].size();
  }
  timing.batch_evals = batches.size();
  if (timing.jobs == 0) {
    return timing;
  }
  std::vector<silod::BytesPerSec> demands;
  std::vector<silod::BytesPerSec> throughputs;
  std::vector<double> pass_ns;
  double measured = 0;
  double checksum = 0;
  while (pass_ns.size() < 3 || measured < min_seconds) {
    ScopedSpan span(tracer, "estimator.batch");
    const std::int64_t start = NowNs();
    for (const silod::EstimatorBatch& batch : batches) {
      batch.RemoteIoDemands(&demands);
      batch.Throughputs(demands, &throughputs);
      checksum += throughputs.front();
    }
    const std::int64_t elapsed = NowNs() - start;
    pass_ns.push_back(static_cast<double>(elapsed));
    measured += static_cast<double>(elapsed) * 1e-9;
  }
  // Keeps the passes observable so the loop cannot be folded away.
  if (checksum < 0) {
    timing.batch_evals = 0;
  }
  timing.ns_per_job = Median(pass_ns) / static_cast<double>(timing.jobs);
  return timing;
}

}  // namespace perfbench
