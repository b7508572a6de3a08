// SiloDSystem: the one-call experiment API.
//
// Wires a workload trace, a (scheduler, cache system) pair and a cluster
// configuration to a simulation engine and returns the paper's metrics.
// Everything in bench/ and most examples go through RunExperiment.
#ifndef SILOD_SRC_CORE_SYSTEM_H_
#define SILOD_SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>

#include "src/core/policy_registry.h"
#include "src/sim/cluster.h"
#include "src/sim/fine_engine.h"
#include "src/sim/flow_engine.h"
#include "src/sim/metrics.h"
#include "src/workload/trace_gen.h"

namespace silod {

enum class EngineKind {
  kFlow,  // Piecewise-constant rates; for large clusters / long traces.
  kFine,  // Mini-batch DES; for micro-benchmarks and cache-dynamics studies.
};

struct ExperimentConfig {
  // Policy name (core/policy_registry.h), e.g. "gavel+coordl".
  std::string policy = "fifo+silod";
  SchedulerOptions scheduler_options;
  SimConfig sim;
  EngineKind engine = EngineKind::kFlow;
  FineEngineOptions fine;
};

// Runs one experiment end to end; SILOD_CHECKs that `config.policy` names a
// policy.
SimResult RunExperiment(const Trace& trace, const ExperimentConfig& config);

// Same, but with a caller-provided scheduler (e.g. a PartitionedScheduler).
SimResult RunExperimentWith(const Trace& trace, std::shared_ptr<Scheduler> scheduler,
                            const ExperimentConfig& config);

}  // namespace silod

#endif  // SILOD_SRC_CORE_SYSTEM_H_
