#include "src/sim/cluster.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/workload/job.h"
#include "src/workload/trace_gen.h"

namespace silod {

Status ValidateSimInputs(const Trace& trace, const SimConfig& config) {
  if (trace.jobs.empty()) {
    return Status::InvalidArgument("empty trace");
  }
  if (const Status storage = ValidateStorageResources(config.resources); !storage.ok()) {
    return storage;
  }
  const ClusterTopology& topology = config.topology;
  int widest = topology.has_gpu_types() ? 0 : config.resources.total_gpus;
  for (const GpuTypeSpec& t : topology.gpu_types()) {
    widest = std::max(widest, t.count);  // Gangs never span types.
  }
  std::vector<bool> seen(trace.jobs.size(), false);
  for (const JobSpec& spec : trace.jobs) {
    const auto job = [&spec] { return "job " + std::to_string(spec.id); };
    if (spec.id < 0 || static_cast<std::size_t>(spec.id) >= seen.size() ||
        seen[static_cast<std::size_t>(spec.id)]) {
      return Status::InvalidArgument("job ids must be dense: " + job() + " in a trace of " +
                                     std::to_string(seen.size()) + " jobs");
    }
    seen[static_cast<std::size_t>(spec.id)] = true;
    if (spec.dataset < 0 || static_cast<std::size_t>(spec.dataset) >= trace.catalog.size()) {
      return Status::InvalidArgument(job() + " references unknown dataset " +
                                     std::to_string(spec.dataset));
    }
    if (spec.num_gpus > std::min(widest, config.resources.total_gpus)) {
      return Status::InvalidArgument(
          job() + " needs " + std::to_string(spec.num_gpus) + " GPUs but " +
          (spec.num_gpus > config.resources.total_gpus
               ? "the cluster has " + std::to_string(config.resources.total_gpus)
               : "the widest gpu-type pool has " + std::to_string(widest)));
    }
  }
  if (const Status in_range = topology.Validate(config.resources.num_servers); !in_range.ok()) {
    return in_range;
  }
  if (topology.has_gpu_types() && topology.TotalTypedGpus() != config.resources.total_gpus) {
    return Status::InvalidArgument("gpu-type counts sum to " +
                                   std::to_string(topology.TotalTypedGpus()) +
                                   " but the cluster has " +
                                   std::to_string(config.resources.total_gpus) + " GPUs");
  }
  return Status::Ok();
}

SimConfig PrepareSimConfig(const Trace* trace, SimConfig config) {
  SILOD_CHECK(trace != nullptr) << "trace required";
  const Status valid = ValidateSimInputs(*trace, config);
  SILOD_CHECK(valid.ok()) << valid.ToString();
  if (!config.topology.empty()) {
    config.topology = config.topology.Cover(config.resources.num_servers);
  }
  return config;
}

}  // namespace silod
