#include "src/fault/restart_cost.h"

#include <string_view>

#include "src/common/text_codec.h"

namespace silod {

std::string RestartCost::ToSpec() const {
  switch (policy) {
    case RestartCostPolicy::kCheckpointEverything:
      return "checkpoint-everything";
    case RestartCostPolicy::kLosePartialEpoch:
      return "lose-partial-epoch";
    case RestartCostPolicy::kCheckpointInterval:
      return "checkpoint-interval:" + std::to_string(interval_blocks);
  }
  return "checkpoint-everything";
}

Result<RestartCost> RestartCost::Parse(const std::string& spec) {
  RestartCost cost;
  if (spec.empty() || spec == "checkpoint-everything") {
    cost.policy = RestartCostPolicy::kCheckpointEverything;
    return cost;
  }
  if (spec == "lose-partial-epoch") {
    cost.policy = RestartCostPolicy::kLosePartialEpoch;
    return cost;
  }
  const std::string prefix = "checkpoint-interval:";
  if (spec.rfind(prefix, 0) == 0) {
    const Result<std::int64_t> blocks =
        ParseInt(std::string_view(spec).substr(prefix.size()), 1);
    if (!blocks.ok()) {
      return Status::InvalidArgument("checkpoint-interval wants a positive block count: " + spec);
    }
    cost.policy = RestartCostPolicy::kCheckpointInterval;
    cost.interval_blocks = *blocks;
    return cost;
  }
  return Status::InvalidArgument(
      "unknown restart-cost policy: " + spec +
      " (checkpoint-everything | lose-partial-epoch | checkpoint-interval:N)");
}

}  // namespace silod
