#include "src/core/system.h"

#include "src/common/logging.h"

namespace silod {

SimResult RunExperiment(const Trace& trace, const ExperimentConfig& config) {
  Result<std::shared_ptr<Scheduler>> scheduler =
      MakeSchedulerByName(config.policy, config.scheduler_options);
  SILOD_CHECK(scheduler.ok()) << scheduler.status().ToString();
  return RunExperimentWith(trace, std::move(scheduler).value(), config);
}

SimResult RunExperimentWith(const Trace& trace, std::shared_ptr<Scheduler> scheduler,
                            const ExperimentConfig& config) {
  SILOD_CHECK(scheduler != nullptr) << "scheduler required";
  switch (config.engine) {
    case EngineKind::kFlow: {
      FlowEngine engine(&trace, std::move(scheduler), config.sim);
      return engine.Run();
    }
    case EngineKind::kFine: {
      FineEngine engine(&trace, std::move(scheduler), config.sim, config.fine);
      return engine.Run();
    }
  }
  SILOD_CHECK(false) << "unreachable engine kind";
  return SimResult{};
}

}  // namespace silod
