// Trace generation following the paper's methodology (§7.1.2, §7.2):
// job durations follow the production distribution reported by Microsoft
// (Philly trace, MSR-TR-2018-13): heavy-tailed, minutes to days, mostly
// single-GPU with a distributed-training tail.  Total steps are set by
// multiplying the profiled V100 throughput by the sampled duration, exactly as
// Gandiva/Gavel construct their traces.
//
// Unless dataset sharing is enabled, every job gets its own synthetic dataset
// of its model's dataset size ("we maintain the diversity by assuming all jobs
// use different datasets", §7).  With share_fraction > 0, that fraction of
// jobs instead reads the canonical shared instance of its dataset (§7.3).
#ifndef SILOD_SRC_WORKLOAD_TRACE_GEN_H_
#define SILOD_SRC_WORKLOAD_TRACE_GEN_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"
#include "src/workload/model_zoo.h"

namespace silod {

struct TraceOptions {
  int num_jobs = 100;
  // Mean inter-arrival gap of the Poisson arrival process; 0 submits all jobs
  // at t = 0 (micro-benchmark style).
  Seconds mean_interarrival = Minutes(5);
  // Log-normal duration parameters (of the ideal, compute-bound duration).
  Seconds median_duration = Minutes(30);
  double duration_sigma = 1.6;
  Seconds min_duration = Minutes(2);
  Seconds max_duration = Days(7);
  // Fraction of jobs whose dataset is the shared canonical instance (§7.3).
  double share_fraction = 0.0;
  // Fig. 14b knob: multiplies every job's f*.
  double gpu_speed_scale = 1.0;
  Bytes block_size = kDefaultBlockSize;
  std::uint64_t seed = 1;
};

// InvalidArgument naming the first option no trace can be drawn from: fewer
// than one job, a negative or non-finite inter-arrival gap, a non-positive
// median or minimum duration, a cap below the minimum, a negative sigma, a
// share fraction outside [0, 1], a non-positive GPU speed or block size.
Status ValidateTraceOptions(const TraceOptions& options);

struct Trace {
  DatasetCatalog catalog;
  std::vector<JobSpec> jobs;

  // Sum of GPU demand, for sanity checks and utilization reporting.
  int TotalGpuDemand() const;
};

class TraceGenerator {
 public:
  // SILOD_CHECKs ValidateTraceOptions.
  explicit TraceGenerator(TraceOptions options);

  Trace Generate() const;

  // The (model, dataset, probability) mixture used to draw jobs; defaults to
  // the Fig. 6 workload weighted toward the image models that dominate
  // production clusters.
  struct MixEntry {
    const char* model;
    const char* dataset;
    double weight;
  };
  static const std::vector<MixEntry>& DefaultMix();

 private:
  TraceOptions options_;
};

// Builds the 5-job micro-benchmark trace of §7.1.1: two 1-GPU ResNet-50 and
// two 1-GPU EfficientNetB1 jobs on four distinct 1.3 TB synthetic image
// datasets, plus one 4-GPU BERT job on the 20.9 TB web search corpus, all
// submitted at t = 0 and sized to run ~3,500 minutes at ideal throughput.
Trace MakeMicrobenchmarkTrace(Bytes block_size = kDefaultBlockSize);

}  // namespace silod

#endif  // SILOD_SRC_WORKLOAD_TRACE_GEN_H_
