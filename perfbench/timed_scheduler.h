// The scheduler timing decorator and the estimator replay.
//
// TimedScheduler wraps a registry scheduler and is handed to the engines
// through RunExperimentWith.  It forwards every call unchanged, so a
// decorated run is bit-identical to an undecorated one (perfbench_test pins
// this); around each Schedule() it records the call's start and end, and in
// a traced run also a "sched.solve" span and the estimator inputs of the
// snapshot's jobs.
#ifndef PERFBENCH_TIMED_SCHEDULER_H_
#define PERFBENCH_TIMED_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sched/policy.h"
#include "tracer.h"

namespace perfbench {

// One job's estimator inputs at a scheduling instant (EstimatorBatch::Add).
struct OperatingPoint {
  double ideal = 0;  // f*, bytes/s.
  double speed = 1;
  silod::Bytes cache = 0;    // Effective cache.
  silod::Bytes dataset = 0;  // Dataset size.
};

// What a traced repetition keeps at most (about 32 bytes a point).
inline constexpr std::size_t kCapturePoints = 1'000'000;

class TimedScheduler : public silod::Scheduler {
 public:
  // `tracer` may be null (untraced).  At most `capture_points` operating
  // points are kept across all captured snapshots; 0 captures none.
  TimedScheduler(std::shared_ptr<silod::Scheduler> inner, Tracer* tracer,
                 std::size_t capture_points);

  silod::AllocationPlan Schedule(const silod::Snapshot& snapshot) override;
  std::string name() const override { return inner_->name(); }

  std::size_t calls() const { return start_ns_.size(); }
  // Per-call solve latency and the gap between one call's end and the next
  // call's start (the caller advancing its state and building the next
  // snapshot), in microseconds.
  std::vector<double> SolveMicros() const;
  std::vector<double> GapMicros() const;
  double MeanSnapshotJobs() const;
  const std::vector<std::vector<OperatingPoint>>& captured() const { return captured_; }

 private:
  std::shared_ptr<silod::Scheduler> inner_;
  Tracer* tracer_;
  std::size_t capture_budget_;
  std::vector<std::int64_t> start_ns_;
  std::vector<std::int64_t> end_ns_;
  std::uint64_t snapshot_jobs_ = 0;
  std::vector<std::vector<OperatingPoint>> captured_;
};

struct EstimatorTiming {
  std::uint64_t batch_evals = 0;  // Snapshots evaluated per pass.
  std::uint64_t jobs = 0;         // Jobs evaluated per pass.
  double ns_per_job = 0;          // Median over passes.
};

// Times EstimatorBatch::RemoteIoDemands + Throughputs over each captured
// snapshot, repeating the pass until `min_seconds` have been measured; each
// pass is one "estimator.batch" span.
EstimatorTiming TimeEstimator(const std::vector<std::vector<OperatingPoint>>& snapshots,
                              Tracer* tracer, double min_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_SCHEDULER_H_
