#include "src/workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/logging.h"
#include "src/common/text_codec.h"

namespace silod {

int Trace::TotalGpuDemand() const {
  int total = 0;
  for (const auto& j : jobs) {
    total += j.num_gpus;
  }
  return total;
}

Status ValidateTraceOptions(const TraceOptions& options) {
  const auto bad = [](const char* what, double value) {
    return Status::InvalidArgument(std::string(what) + ", got " + FormatShortest(value));
  };
  if (options.num_jobs < 1) {
    return bad("num_jobs must be >= 1", options.num_jobs);
  }
  if (!std::isfinite(options.mean_interarrival) || options.mean_interarrival < 0) {
    return bad("mean_interarrival must be finite and >= 0", options.mean_interarrival);
  }
  if (!std::isfinite(options.median_duration) || options.median_duration <= 0) {
    return bad("median_duration must be finite and > 0", options.median_duration);
  }
  if (!std::isfinite(options.duration_sigma) || options.duration_sigma < 0) {
    return bad("duration_sigma must be finite and >= 0", options.duration_sigma);
  }
  if (!std::isfinite(options.min_duration) || options.min_duration <= 0) {
    return bad("min_duration must be finite and > 0", options.min_duration);
  }
  if (!std::isfinite(options.max_duration) || options.max_duration < options.min_duration) {
    return bad("max_duration must be finite and >= min_duration", options.max_duration);
  }
  if (!(options.share_fraction >= 0 && options.share_fraction <= 1)) {
    return bad("share_fraction must be in [0, 1]", options.share_fraction);
  }
  if (!std::isfinite(options.gpu_speed_scale) || options.gpu_speed_scale <= 0) {
    return bad("gpu_speed_scale must be finite and > 0", options.gpu_speed_scale);
  }
  if (options.block_size <= 0) {
    return bad("block_size must be > 0", static_cast<double>(options.block_size));
  }
  return Status::Ok();
}

TraceGenerator::TraceGenerator(TraceOptions options) : options_(options) {
  const Status valid = ValidateTraceOptions(options_);
  SILOD_CHECK(valid.ok()) << valid.ToString();
}

const std::vector<TraceGenerator::MixEntry>& TraceGenerator::DefaultMix() {
  // Weighted toward the image-classification jobs that dominate the clusters
  // the paper studies; language and video jobs form the low-cache-efficiency
  // tail of Fig. 6.
  static const std::vector<MixEntry> kMix = {
      {"ResNet-50", "ImageNet-1k", 0.18},  {"EfficientNetB1", "ImageNet-1k", 0.10},
      {"ResNet-152", "ImageNet-1k", 0.08}, {"ResNet-50", "OpenImages", 0.10},
      {"EfficientNetB1", "OpenImages", 0.08}, {"ResNet-50", "ImageNet-22k", 0.12},
      {"ResNet-152", "OpenImages", 0.06},  {"EfficientNetB1", "ImageNet-22k", 0.08},
      {"ResNet-152", "ImageNet-22k", 0.06}, {"VLAD", "Youtube-8M", 0.08},
      {"BERT", "WebSearch", 0.06},         {"AlexNet", "ImageNet-1k", 0.04},
      {"InceptionV3", "OpenImages", 0.04}, {"EfficientNetB0", "ImageNet-1k", 0.02},
  };
  return kMix;
}

Trace TraceGenerator::Generate() const {
  Rng rng(options_.seed);
  const ModelZoo zoo;
  Trace trace;

  // Canonical shared dataset instances, created lazily.
  std::map<std::string, DatasetId> shared_ids;

  const auto& mix = DefaultMix();
  double total_weight = 0;
  for (const auto& e : mix) {
    total_weight += e.weight;
  }

  Seconds clock = 0;
  for (int i = 0; i < options_.num_jobs; ++i) {
    // Arrival process.
    if (options_.mean_interarrival > 0 && i > 0) {
      clock += rng.Exponential(1.0 / options_.mean_interarrival);
    }

    // (model, dataset) mixture draw.
    double pick = rng.NextDouble() * total_weight;
    const MixEntry* entry = &mix.back();
    for (const auto& e : mix) {
      pick -= e.weight;
      if (pick <= 0) {
        entry = &e;
        break;
      }
    }

    // GPU demand: mostly single-GPU with a distributed tail (Philly-like).
    const double g = rng.NextDouble();
    int num_gpus = 1;
    if (g > 0.70 && g <= 0.80) {
      num_gpus = 2;
    } else if (g > 0.80 && g <= 0.92) {
      num_gpus = 4;
    } else if (g > 0.92) {
      num_gpus = 8;
    }

    // Heavy-tailed ideal duration.
    const double mu = std::log(options_.median_duration);
    Seconds duration = rng.LogNormal(mu, options_.duration_sigma);
    duration = std::clamp(duration, options_.min_duration, options_.max_duration);

    // Dataset: shared canonical instance or fresh synthetic copy.
    const NamedDataset& named = zoo.GetDataset(entry->dataset);
    DatasetId dataset_id;
    if (options_.share_fraction > 0 && rng.NextDouble() < options_.share_fraction) {
      auto it = shared_ids.find(named.name);
      if (it == shared_ids.end()) {
        dataset_id = trace.catalog.Add(named.name + "-shared", named.size, options_.block_size);
        shared_ids.emplace(named.name, dataset_id);
      } else {
        dataset_id = it->second;
      }
    } else {
      dataset_id = trace.catalog.Add(named.name + "#" + std::to_string(i), named.size,
                                     options_.block_size);
    }

    trace.jobs.push_back(MakeJob(static_cast<JobId>(i), zoo, entry->model, num_gpus, dataset_id,
                                 duration, clock, options_.gpu_speed_scale));
  }
  return trace;
}

Trace MakeMicrobenchmarkTrace(Bytes block_size) {
  const ModelZoo zoo;
  Trace trace;
  // Four distinct 1.3 TB synthesized image datasets + the 20.9 TB web corpus.
  const DatasetId img0 = trace.catalog.Add("synth-images-0", TB(1.3), block_size);
  const DatasetId img1 = trace.catalog.Add("synth-images-1", TB(1.3), block_size);
  const DatasetId img2 = trace.catalog.Add("synth-images-2", TB(1.3), block_size);
  const DatasetId img3 = trace.catalog.Add("synth-images-3", TB(1.3), block_size);
  const DatasetId web = trace.catalog.Add("WebSearch", TB(20.9), block_size);

  // ~3,500 minutes at ideal speed: 13 epochs of 1.3 TB at 114 MB/s for the
  // ResNet-50s, 10 epochs at 69 MB/s for the EfficientNetB1s, 0.07 epochs of
  // 20.9 TB for the 4-GPU BERT job (§7.1.1).
  auto add = [&](const char* model, int gpus, DatasetId d, double epochs, Bytes dataset_size) {
    const double total = epochs * static_cast<double>(dataset_size);
    JobSpec job = MakeJob(static_cast<JobId>(trace.jobs.size()), zoo, model, gpus, d,
                          /*ideal_duration=*/1.0, /*submit_time=*/0);
    job.total_bytes = static_cast<Bytes>(total);
    trace.jobs.push_back(job);
  };
  add("ResNet-50", 1, img0, 13, TB(1.3));
  add("ResNet-50", 1, img1, 13, TB(1.3));
  add("EfficientNetB1", 1, img2, 10, TB(1.3));
  add("EfficientNetB1", 1, img3, 10, TB(1.3));
  add("BERT", 4, web, 0.07, TB(20.9));
  return trace;
}

}  // namespace silod
