#include "src/serve/service.h"

#include <string_view>
#include <utility>
#include <vector>

#include "src/common/digest.h"
#include "src/common/logging.h"
#include "src/sched/allocation.h"

namespace silod {
namespace {

std::string FormatU64(std::uint64_t value) { return std::to_string(value); }

ServeResponse OkResponse() {
  ServeResponse response;
  response.code = StatusCode::kOk;
  return response;
}

// Parses a `speeds=` value: comma-separated `type=factor` pairs scaling a
// job's throughput on each GPU type (unlisted types default to 1.0).
Result<std::vector<std::pair<std::string, double>>> ParseSpeeds(std::string_view speeds) {
  std::vector<std::pair<std::string, double>> factors;
  for (const std::string_view pair : SplitList(speeds, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("malformed speeds entry '" + std::string(pair) + "'");
    }
    const Result<double> factor = ParseDouble(pair.substr(eq + 1));
    if (!factor.ok() || !(*factor > 0)) {
      return Status::InvalidArgument("speeds factor must be positive in '" + std::string(pair) +
                                     "'");
    }
    factors.emplace_back(pair.substr(0, eq), *factor);
  }
  return factors;
}

}  // namespace

bool IsMutatingVerb(const std::string& verb) {
  // `plan` forces a solve that flips running flags and stamps first-start
  // times, so it must replay; checkpoint/shutdown/query/stats/report leave
  // the scheduling state untouched.
  return verb == "submit" || verb == "complete" || verb == "cancel" || verb == "progress" ||
         verb == "reload-policy" || verb == "plan";
}

ServiceState::ServiceState(ServiceConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<ServiceState>> ServiceState::Create(ServiceConfig config) {
  if (config.resources.total_gpus <= 0) {
    return Status::InvalidArgument("total_gpus must be positive");
  }
  if (const Status st = ValidateStorageResources(config.resources); !st.ok()) {
    return st;
  }
  auto service = std::unique_ptr<ServiceState>(new ServiceState(std::move(config)));
  if (!service->config_.topology.empty()) {
    const Status st = service->config_.topology.Validate(service->config_.resources.num_servers);
    if (!st.ok()) {
      return st;
    }
    service->covered_topology_ =
        service->config_.topology.Cover(service->config_.resources.num_servers);
  } else if (service->config_.topology.has_gpu_types()) {
    // gpu-type entries without zones still need to reach the scheduler.
    service->covered_topology_ = service->config_.topology;
  }
  if (service->config_.topology.has_gpu_types() &&
      service->config_.topology.TotalTypedGpus() != service->config_.resources.total_gpus) {
    return Status::InvalidArgument(
        "gpu-type counts sum to " + std::to_string(service->config_.topology.TotalTypedGpus()) +
        " but the cluster has " + std::to_string(service->config_.resources.total_gpus) + " GPUs");
  }
  Result<std::unique_ptr<IncrementalPlanner>> planner = IncrementalPlanner::Create(
      service->config_.policy, service->config_.scheduler, service->config_.planning);
  if (!planner.ok()) {
    return planner.status();
  }
  service->planner_ = std::move(planner).value();
  service->admission_ = std::make_unique<AdmissionController>(
      service->config_.admission, service->config_.resources.total_gpus);
  return service;
}

Result<std::unique_ptr<ServiceState>> ServiceState::CreateFromJournal(
    ServiceConfig config, const JournalOptions& journal, RecoveryInfo* recovery) {
  Result<std::unique_ptr<ServiceState>> service = Create(std::move(config));
  if (!service.ok()) {
    return service.status();
  }
  JournalScan scan;
  Result<std::unique_ptr<Journal>> wal = Journal::Open(journal, &scan);
  if (!wal.ok()) {
    return wal.status();
  }
  RecoveryInfo info;
  info.dropped_bytes = scan.dropped_bytes;
  if (scan.has_checkpoint) {
    if (const Status st = (*service)->RestoreFromCheckpoint(scan.checkpoint, &info); !st.ok()) {
      return st;
    }
    info.from_checkpoint = true;
  }
  (*service)->replaying_ = true;
  for (const std::string& payload : scan.requests) {
    Result<ServeRequest> request = ServeRequest::Decode(payload);
    if (!request.ok()) {
      // A CRC-valid record that fails to decode is a version mismatch, not a
      // torn tail; starting over it would silently drop accepted state.
      return Status::Internal("journal replay: undecodable request record: " +
                              request.status().message());
    }
    const ServeResponse response = (*service)->Handle(*request);
    ++info.replayed_requests;
    if (!response.ok()) {
      // The original run journaled the request before learning it would fail,
      // so failures replay too; they are expected, counted, and non-fatal.
      ++info.replayed_errors;
    }
  }
  (*service)->replaying_ = false;
  (*service)->AttachJournal(std::move(wal).value());
  (*service)->recovery_ = info;
  if (recovery != nullptr) {
    *recovery = info;
  }
  return service;
}

Snapshot ServiceState::MakeSnapshot() const {
  const bool have_topology = !covered_topology_.empty() || covered_topology_.has_gpu_types();
  return table_.BuildSnapshot(now_, config_.resources,
                              have_topology ? &covered_topology_ : nullptr);
}

Status ServiceState::AdvanceClock(const ServeRequest& request) {
  if (!request.Has("t")) {
    return Status::Ok();
  }
  Result<double> t = request.GetDouble("t");
  if (!t.ok()) {
    return t.status();
  }
  if (*t < 0) {
    return Status::InvalidArgument(request.verb + ": t must be >= 0");
  }
  if (*t > now_) {
    now_ = *t;
  }
  return Status::Ok();
}

void ServiceState::Replan(bool force) {
  // A reused plan leaves every job's flags as the last solve set them, so
  // only a re-solve has anything to apply.
  if (!planner_->PlanFor(MakeSnapshot(), force)) {
    return;
  }
  // Merge-join the active ids (ascending) with the plan's job map (sorted).
  const AllocationPlan& plan = planner_->plan();
  auto plan_it = plan.jobs.begin();
  for (const JobId id : table_.active()) {
    while (plan_it != plan.jobs.end() && plan_it->first < id) {
      ++plan_it;
    }
    const bool running =
        plan_it != plan.jobs.end() && plan_it->first == id && plan_it->second.running;
    ServeJob* job = table_.Get(id);
    if (running && !job->running && job->first_start_time < 0) {
      job->first_start_time = now_;
    }
    job->running = running;
    job->gpu_type = running ? plan_it->second.gpu_type : -1;
  }
}

const AllocationPlan& ServiceState::PlanNow() {
  Replan(/*force=*/true);
  return planner_->plan();
}

bool ServiceState::PromoteQueued() {
  // Strict FIFO: promote from the head while the gate allows; the first job
  // that does not fit blocks everything behind it.
  bool promoted = false;
  while (!table_.queued().empty()) {
    ServeJob* job = table_.Get(table_.queued().front());
    if (!admission_->LoadAllows(table_.ActiveGpuDemand(), job->spec.num_gpus)) {
      break;
    }
    table_.SetState(job, ServeJobState::kActive);
    job->admit_time = now_;
    admission_->Record(AdmissionDecision::kAdmit);
    planner_->NoteEvent();
    promoted = true;
  }
  return promoted;
}

ServeResponse ServiceState::Handle(const ServeRequest& request) {
  ++requests_;
  const bool mutating = IsMutatingVerb(request.verb);

  // Idempotent retry: a mutating request may carry a monotone rid.  A rid at
  // or below the last applied one was already applied (and journaled) by a
  // previous delivery — acknowledge it without touching state, so clients can
  // blindly re-send across a daemon restart.
  std::uint64_t rid = 0;
  if (mutating && request.Has("rid")) {
    Result<std::int64_t> parsed = request.GetInt("rid");
    if (!parsed.ok()) {
      ++errors_;
      return ServeResponse::FromStatus(parsed.status());
    }
    if (*parsed <= 0) {
      ++errors_;
      return ServeResponse::FromStatus(
          Status::InvalidArgument(request.verb + ": rid must be positive"));
    }
    rid = static_cast<std::uint64_t>(*parsed);
    if (rid <= last_rid_) {
      ++duplicates_;
      ServeResponse response = OkResponse();
      response.fields["duplicate"] = "1";
      response.fields["rid"] = FormatU64(rid);
      response.fields["last-rid"] = FormatU64(last_rid_);
      return response;
    }
  }

  // Write-ahead: the frame must be durable before it can change state.  A
  // failed append refuses the request — the client retries with the same rid.
  if (journal_ != nullptr && mutating && !replaying_) {
    if (const Status st = journal_->AppendRequest(request.Encode()); !st.ok()) {
      ++errors_;
      return ServeResponse::FromStatus(
          Status::Internal("journal append failed, refusing to apply: " + st.message()));
    }
  }

  ServeResponse response = Dispatch(request);
  table_.FoldRetired();
  if (!response.ok()) {
    ++errors_;
  } else if (rid > 0) {
    last_rid_ = rid;
  }

  // Auto-compaction keeps the journal bounded; failure is non-fatal (the
  // mutation is already durable in the un-compacted journal).
  if (journal_ != nullptr && mutating && !replaying_ && journal_->ShouldAutoCompact()) {
    if (const Status st = journal_->Compact(CheckpointText()); st.ok()) {
      ++checkpoints_;
    } else {
      SILOD_LOG(Warning) << "journal auto-compaction failed: " << st.message();
    }
  }
  return response;
}

ServeResponse ServiceState::Dispatch(const ServeRequest& request) {
  ServeResponse response;
  if (const Status st = AdvanceClock(request); !st.ok()) {
    response = ServeResponse::FromStatus(st);
  } else if (request.verb == "submit") {
    response = Submit(request);
  } else if (request.verb == "complete") {
    response = Complete(request);
  } else if (request.verb == "cancel") {
    response = Cancel(request);
  } else if (request.verb == "progress") {
    response = Progress(request);
  } else if (request.verb == "query") {
    response = Query(request);
  } else if (request.verb == "plan") {
    response = Plan(request);
  } else if (request.verb == "stats") {
    response = Stats();
  } else if (request.verb == "reload-policy") {
    response = ReloadPolicy(request);
  } else if (request.verb == "checkpoint") {
    response = Checkpoint();
  } else if (request.verb == "report") {
    // The JCT summary travels both as the RunReport JSON and as FormatExact
    // scalar fields, so --serve-trace --check can compare doubles
    // bit-for-bit without a JSON parser.
    const RunReport report = Report();
    response = OkResponse();
    response.fields["json"] = report.ToJson().Format();
    response.fields["jobs"] = std::to_string(report.jobs);
    response.fields["unfinished"] = std::to_string(report.unfinished_jobs);
    response.fields["finished"] = std::to_string(report.jct.finished);
    response.fields["avg-jct-min"] = FormatExact(report.jct.avg_jct_min);
    response.fields["p50-jct-min"] = FormatExact(report.jct.p50_jct_min);
    response.fields["p90-jct-min"] = FormatExact(report.jct.p90_jct_min);
    response.fields["p95-jct-min"] = FormatExact(report.jct.p95_jct_min);
    response.fields["p99-jct-min"] = FormatExact(report.jct.p99_jct_min);
    response.fields["avg-queue-min"] = FormatExact(report.jct.avg_queue_min);
    response.fields["avg-run-min"] = FormatExact(report.jct.avg_run_min);
    response.fields["makespan-min"] = FormatExact(report.makespan_min);
  } else if (request.verb == "shutdown") {
    shutdown_ = true;
    response = OkResponse();
    response.fields["state"] = "shutting-down";
  } else {
    response = ServeResponse::FromStatus(Status::InvalidArgument(
        "unknown verb '" + request.verb +
        "' (want submit|complete|cancel|progress|query|plan|stats|reload-policy|checkpoint|"
        "report|shutdown)"));
  }
  return response;
}

ServeResponse ServiceState::Submit(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  Result<std::int64_t> gpus = request.GetInt("gpus");
  Result<double> ideal_io = request.GetDouble("ideal-io");
  Result<std::int64_t> total_bytes = request.GetInt("total-bytes");
  Result<std::string> dataset_name = request.GetString("dataset");
  Result<std::int64_t> dataset_size = request.GetInt("dataset-size");
  for (const Status* st :
       {!key.ok() ? &key.status() : nullptr, !gpus.ok() ? &gpus.status() : nullptr,
        !ideal_io.ok() ? &ideal_io.status() : nullptr,
        !total_bytes.ok() ? &total_bytes.status() : nullptr,
        !dataset_name.ok() ? &dataset_name.status() : nullptr,
        !dataset_size.ok() ? &dataset_size.status() : nullptr}) {
    if (st != nullptr) {
      return ServeResponse::FromStatus(*st);
    }
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(Status::InvalidArgument("submit: missing required argument 't'"));
  }
  if (*gpus <= 0 || *ideal_io <= 0 || *total_bytes <= 0 || *dataset_size <= 0) {
    return ServeResponse::FromStatus(Status::InvalidArgument(
        "submit: gpus, ideal-io, total-bytes and dataset-size must be positive"));
  }
  if (covered_topology_.has_gpu_types()) {
    // Gang scheduling never splits a job across type pools, so a gang wider
    // than every pool could never start — reject it instead of queueing it
    // forever.
    int widest = 0;
    for (const GpuTypeSpec& t : covered_topology_.gpu_types()) {
      widest = std::max(widest, t.count);
    }
    if (*gpus > widest) {
      return ServeResponse::FromStatus(Status::InvalidArgument(
          "submit: job needs " + std::to_string(*gpus) + " GPUs but the widest gpu-type pool has " +
          std::to_string(widest)));
    }
  }
  if (table_.Find(*key).ok()) {
    return ServeResponse::FromStatus(Status::AlreadyExists("job '" + *key + "' already submitted"));
  }
  Bytes block_size = kDefaultBlockSize;
  if (request.Has("block-size")) {
    Result<std::int64_t> block = request.GetInt("block-size");
    if (!block.ok()) {
      return ServeResponse::FromStatus(block.status());
    }
    if (*block <= 0) {
      return ServeResponse::FromStatus(Status::InvalidArgument("submit: block-size must be positive"));
    }
    block_size = *block;
  }
  Result<DatasetId> dataset = table_.InternDataset(*dataset_name, *dataset_size, block_size);
  if (!dataset.ok()) {
    return ServeResponse::FromStatus(dataset.status());
  }

  const AdmissionDecision decision =
      admission_->Decide(table_.ActiveGpuDemand(),
                         static_cast<int>(table_.CountState(ServeJobState::kQueued)),
                         static_cast<int>(*gpus));
  admission_->Record(decision);
  if (decision == AdmissionDecision::kReject) {
    return ServeResponse::FromStatus(Status::ResourceExhausted(
        "admission rejected '" + *key + "': load would reach " +
        FormatExact(admission_->LoadWith(table_.ActiveGpuDemand(), static_cast<int>(*gpus))) +
        " > " + FormatExact(admission_->options().max_gpu_load) + " and the queue is full (" +
        std::to_string(admission_->options().max_queue) + ")"));
  }

  JobSpec spec;
  spec.name = *key;
  spec.model = request.Has("model") ? request.args.at("model") : "custom";
  spec.num_gpus = static_cast<int>(*gpus);
  spec.dataset = *dataset;
  spec.ideal_io = *ideal_io;
  spec.total_bytes = *total_bytes;
  spec.step_data_size = block_size;
  if (request.Has("tenant")) {
    spec.tenant = request.args.at("tenant");
  }
  if (request.Has("speeds")) {
    Result<std::vector<std::pair<std::string, double>>> speeds =
        ParseSpeeds(request.args.at("speeds"));
    if (!speeds.ok()) {
      return ServeResponse::FromStatus(
          Status::InvalidArgument("submit: " + speeds.status().message()));
    }
    spec.speed_factors = *std::move(speeds);
  }
  if (request.Has("step-bytes")) {
    Result<std::int64_t> step = request.GetInt("step-bytes");
    if (!step.ok()) {
      return ServeResponse::FromStatus(step.status());
    }
    spec.step_data_size = *step;
  }
  const bool admit = decision == AdmissionDecision::kAdmit;
  Result<ServeJob*> job = table_.Add(*key, std::move(spec), now_,
                                     admit ? ServeJobState::kActive : ServeJobState::kQueued);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }

  ServeResponse response = OkResponse();
  response.fields["decision"] = AdmissionDecisionName(decision);
  response.fields["job"] = std::to_string((*job)->spec.id);
  if (admit) {
    (*job)->admit_time = now_;
    planner_->NoteEvent();
    Replan(/*force=*/false);
    response.fields["running"] = (*job)->running ? "1" : "0";
  } else {
    response.fields["position"] = std::to_string(table_.CountState(ServeJobState::kQueued));
  }
  return response;
}

ServeResponse ServiceState::Complete(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("complete: missing required argument 't'"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  if ((*job)->state() != ServeJobState::kActive) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is " + ServeJobStateName((*job)->state()) + ", not active"));
  }
  table_.SetState(*job, ServeJobState::kCompleted);
  (*job)->finish_time = now_;
  (*job)->running = false;
  (*job)->remaining_bytes = 0;
  planner_->NoteEvent();
  PromoteQueued();
  Replan(/*force=*/false);
  ServeResponse response = OkResponse();
  response.fields["state"] = "completed";
  response.fields["jct"] = FormatExact((*job)->finish_time - (*job)->submit_time);
  return response;
}

ServeResponse ServiceState::Cancel(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("cancel: missing required argument 't'"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  const ServeJobState state = (*job)->state();
  if (state == ServeJobState::kCompleted || state == ServeJobState::kCancelled) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is already " + ServeJobStateName(state)));
  }
  const bool was_active = state == ServeJobState::kActive;
  table_.SetState(*job, ServeJobState::kCancelled);
  (*job)->finish_time = now_;
  (*job)->running = false;
  if (was_active) {
    planner_->NoteEvent();
    PromoteQueued();
    Replan(/*force=*/false);
  } else if (PromoteQueued()) {
    // A queued job was never in the scheduler's view, so its cancel is no
    // event; but it may have been the head blocking the queue behind it.
    Replan(/*force=*/false);
  }
  ServeResponse response = OkResponse();
  response.fields["state"] = "cancelled";
  response.fields["was"] = ServeJobStateName(state);
  return response;
}

ServeResponse ServiceState::Progress(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  Result<std::int64_t> remaining = request.GetInt("remaining");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!remaining.ok()) {
    return ServeResponse::FromStatus(remaining.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("progress: missing required argument 't'"));
  }
  if (*remaining < 0) {
    return ServeResponse::FromStatus(Status::InvalidArgument("progress: remaining must be >= 0"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  if ((*job)->state() != ServeJobState::kActive) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is " + ServeJobStateName((*job)->state()) + ", not active"));
  }
  (*job)->remaining_bytes = *remaining;
  if (request.Has("effective")) {
    Result<std::int64_t> effective = request.GetInt("effective");
    if (!effective.ok()) {
      return ServeResponse::FromStatus(effective.status());
    }
    if (*effective < 0) {
      return ServeResponse::FromStatus(
          Status::InvalidArgument("progress: effective must be >= 0"));
    }
    (*job)->effective_cache = *effective;
  }
  planner_->NoteEvent();
  Replan(/*force=*/false);
  ServeResponse response = OkResponse();
  response.fields["state"] = "active";
  response.fields["running"] = (*job)->running ? "1" : "0";
  return response;
}

ServeResponse ServiceState::Query(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  const ServeJob& j = **job;
  ServeResponse response = OkResponse();
  response.fields["state"] = ServeJobStateName(j.state());
  response.fields["job"] = std::to_string(j.spec.id);
  response.fields["gpus"] = std::to_string(j.spec.num_gpus);
  response.fields["running"] = j.running ? "1" : "0";
  response.fields["dataset"] = table_.catalog().Get(j.spec.dataset).name;
  response.fields["remaining"] = std::to_string(j.remaining_bytes);
  response.fields["submit-t"] = FormatExact(j.submit_time);
  if (j.admit_time >= 0) {
    response.fields["admit-t"] = FormatExact(j.admit_time);
  }
  if (j.first_start_time >= 0) {
    response.fields["start-t"] = FormatExact(j.first_start_time);
  }
  if (j.finish_time >= 0) {
    response.fields["finish-t"] = FormatExact(j.finish_time);
  }
  return response;
}

ServeResponse ServiceState::Plan(const ServeRequest& request) {
  (void)request;  // The clock already advanced from the optional t=.
  const AllocationPlan& plan = PlanNow();
  int running = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running) {
      ++running;
    }
  }
  ServeResponse response = OkResponse();
  response.fields["digest"] = FormatDigest(PlanDigest(plan));
  response.fields["running"] = std::to_string(running);
  response.fields["gpus-used"] = std::to_string(plan.GpusUsed());
  response.fields["cache-bytes"] = std::to_string(plan.DatasetCacheTotal());
  response.fields["cache-model"] = CacheModelKindName(plan.cache_model);
  response.fields["manages-remote-io"] = plan.manages_remote_io ? "1" : "0";
  return response;
}

ServeResponse ServiceState::Stats() {
  ServeResponse response = OkResponse();
  response.fields["now"] = FormatExact(now_);
  response.fields["policy"] = planner_->policy_name();
  response.fields["jobs"] = std::to_string(table_.size());
  response.fields["active"] = std::to_string(table_.CountState(ServeJobState::kActive));
  response.fields["queued"] = std::to_string(table_.CountState(ServeJobState::kQueued));
  response.fields["completed"] = std::to_string(table_.CountState(ServeJobState::kCompleted));
  response.fields["cancelled"] = std::to_string(table_.CountState(ServeJobState::kCancelled));
  response.fields["gpu-demand"] = std::to_string(table_.ActiveGpuDemand());
  response.fields["total-gpus"] = std::to_string(config_.resources.total_gpus);
  response.fields["admitted"] = FormatU64(admission_->admitted());
  response.fields["adm-queued"] = FormatU64(admission_->queued());
  response.fields["rejected"] = FormatU64(admission_->rejected());
  response.fields["full-solves"] = FormatU64(planner_->full_solves());
  response.fields["reused-plans"] = FormatU64(planner_->reused_plans());
  response.fields["planning-ticks"] = FormatU64(planner_->planning_ticks());
  response.fields["dirty-pending"] = FormatU64(planner_->pending_events());
  response.fields["requests"] = FormatU64(requests_);
  response.fields["errors"] = FormatU64(errors_);
  response.fields["state-digest"] = FormatDigest(StateDigest());
  response.fields["last-rid"] = FormatU64(last_rid_);
  response.fields["duplicates"] = FormatU64(duplicates_);
  if (journal_ != nullptr) {
    response.fields["journal"] = journal_->path();
    response.fields["journal-bytes"] = FormatU64(journal_->size_bytes());
    response.fields["journal-sync"] = JournalSyncModeName(journal_->options().sync);
    response.fields["journal-records"] = FormatU64(journal_->appended_records());
    response.fields["journal-compactions"] = FormatU64(journal_->compactions());
    response.fields["recovered-checkpoint"] = recovery_.from_checkpoint ? "1" : "0";
    response.fields["recovered-requests"] = FormatU64(recovery_.replayed_requests);
    response.fields["recovered-errors"] = FormatU64(recovery_.replayed_errors);
    response.fields["recovered-dropped-bytes"] = FormatU64(recovery_.dropped_bytes);
  }
  return response;
}

ServeResponse ServiceState::ReloadPolicy(const ServeRequest& request) {
  Result<std::string> policy = request.GetString("policy");
  if (!policy.ok()) {
    return ServeResponse::FromStatus(policy.status());
  }
  SchedulerOptions options = config_.scheduler;
  if (request.Has("manage-remote-io")) {
    Result<std::int64_t> manage = request.GetInt("manage-remote-io");
    if (!manage.ok()) {
      return ServeResponse::FromStatus(manage.status());
    }
    options.manage_remote_io = *manage != 0;
  }
  if (const Status st = planner_->ReloadPolicy(*policy, options); !st.ok()) {
    return ServeResponse::FromStatus(st);
  }
  config_.policy = *policy;
  config_.scheduler = options;
  Replan(/*force=*/true);
  ServeResponse response = OkResponse();
  response.fields["policy"] = planner_->policy_name();
  return response;
}

ServeResponse ServiceState::Checkpoint() {
  if (journal_ == nullptr) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "no journal attached (start silodd with --journal=PATH)"));
  }
  const std::string text = CheckpointText();
  if (const Status st = journal_->Compact(text); !st.ok()) {
    return ServeResponse::FromStatus(st);
  }
  ++checkpoints_;
  ServeResponse response = OkResponse();
  response.fields["checkpoint-bytes"] = std::to_string(text.size());
  response.fields["journal-bytes"] = FormatU64(journal_->size_bytes());
  response.fields["compactions"] = FormatU64(journal_->compactions());
  return response;
}

std::uint64_t ServiceState::StateDigest() const {
  Fnv1a64 h;
  h.String(planner_->policy_name());
  h.U64(config_.scheduler.manage_remote_io ? 1 : 0);
  h.Double(now_);
  h.U64(last_rid_);
  h.U64(admission_->admitted());
  h.U64(admission_->queued());
  h.U64(admission_->rejected());
  h.Double(planner_->last_plan_time());
  h.U64(table_.catalog_digest());
  h.U64(table_.size());
  // A wrapping sum is order-free, so the retired jobs' part is kept folded
  // and only the live jobs are hashed here.
  std::uint64_t jobs = table_.retired_sum();
  for (const JobId id : table_.active()) {
    jobs += JobStateHash(*table_.Get(id));
  }
  for (const JobId id : table_.queued()) {
    jobs += JobStateHash(*table_.Get(id));
  }
  h.U64(jobs);
  return h.hash();
}

std::string ServiceState::CheckpointText() const {
  std::string out = "silodd-checkpoint-v1\n";
  out += "cluster gpus=" + std::to_string(config_.resources.total_gpus) +
         " cache=" + std::to_string(config_.resources.total_cache) +
         " egress=" + FormatExact(config_.resources.remote_io) +
         " servers=" + std::to_string(config_.resources.num_servers) + "\n";
  out += "policy name=" + EscapeToken(planner_->policy_name()) +
         " manage-remote-io=" + (config_.scheduler.manage_remote_io ? "1" : "0") + "\n";
  out += "clock now=" + FormatExact(now_) + " last-rid=" + FormatU64(last_rid_) +
         " requests=" + FormatU64(requests_) + " errors=" + FormatU64(errors_) +
         " duplicates=" + FormatU64(duplicates_) + "\n";
  out += "admission admitted=" + FormatU64(admission_->admitted()) +
         " queued=" + FormatU64(admission_->queued()) +
         " rejected=" + FormatU64(admission_->rejected()) + "\n";
  out += "planner last-plan-t=" + FormatExact(planner_->last_plan_time()) +
         " dirty-events=" + FormatU64(planner_->pending_events()) + "\n";
  for (const Dataset& dataset : table_.catalog().all()) {
    out += "dataset id=" + std::to_string(dataset.id) + " name=" + EscapeToken(dataset.name) +
           " size=" + std::to_string(dataset.size) +
           " block=" + std::to_string(dataset.block_size) + "\n";
  }
  for (const auto& job : table_.jobs()) {
    const ServeJob& j = *job;
    out += "job id=" + std::to_string(j.spec.id) + " key=" + EscapeToken(j.key) +
           " state=" + ServeJobStateName(j.state()) + " gpus=" + std::to_string(j.spec.num_gpus) +
           " dataset=" + std::to_string(j.spec.dataset) +
           " ideal-io=" + FormatExact(j.spec.ideal_io) +
           " total-bytes=" + std::to_string(j.spec.total_bytes) +
           " step-bytes=" + std::to_string(j.spec.step_data_size) +
           " model=" + EscapeToken(j.spec.model) + " submit-t=" + FormatExact(j.submit_time) +
           " admit-t=" + FormatExact(j.admit_time) +
           " start-t=" + FormatExact(j.first_start_time) +
           " finish-t=" + FormatExact(j.finish_time) +
           " remaining=" + std::to_string(j.remaining_bytes) +
           " effective=" + std::to_string(j.effective_cache) +
           " running=" + (j.running ? "1" : "0");
    // Optional heterogeneity tokens: emitted only when set, so checkpoints
    // from untyped fleets stay byte-identical to silodd-checkpoint-v1 files
    // written before GPU types existed (and old daemons' parsers, which
    // reject unknown keys, only see them when the feature is in use).
    if (j.gpu_type >= 0) {
      out += " gpu-type=" + std::to_string(j.gpu_type);
    }
    if (!j.spec.tenant.empty()) {
      out += " tenant=" + EscapeToken(j.spec.tenant);
    }
    if (!j.spec.speed_factors.empty()) {
      out += " speeds=";
      for (std::size_t i = 0; i < j.spec.speed_factors.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += EscapeToken(j.spec.speed_factors[i].first) + "=" +
               FormatExact(j.spec.speed_factors[i].second);
      }
    }
    out += "\n";
  }
  out += "end\n";
  return out;
}

Status ServiceState::RestoreFromCheckpoint(const std::string& text, RecoveryInfo* recovery) {
  if (table_.size() != 0 || now_ != 0 || last_rid_ != 0) {
    return Status::FailedPrecondition("checkpoint restore requires a fresh service");
  }
  const Status st = ApplyCheckpoint(text, recovery);
  table_.FoldRetired();
  return st.ok() ? st : Status::Internal("journal checkpoint: " + st.message());
}

Status ServiceState::ApplyCheckpoint(const std::string& text, RecoveryInfo* recovery) {
  const std::vector<std::string_view> lines = SplitList(text, '\n');
  if (lines.empty() || lines[0] != "silodd-checkpoint-v1") {
    return Status::InvalidArgument("bad header (want silodd-checkpoint-v1)");
  }

  RecordFields cluster_args, policy_args, clock_args, admission_args, planner_args;
  std::vector<RecordFields> dataset_lines, job_lines;
  bool saw_end = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      continue;
    }
    Result<TextRecord> record = DecodeRecord(lines[i]);
    if (!record.ok()) {
      return record.status();
    }
    const std::string& kind = record->head;
    RecordFields& args = record->fields;
    if (kind == "cluster") {
      cluster_args = std::move(args);
    } else if (kind == "policy") {
      policy_args = std::move(args);
    } else if (kind == "clock") {
      clock_args = std::move(args);
    } else if (kind == "admission") {
      admission_args = std::move(args);
    } else if (kind == "planner") {
      planner_args = std::move(args);
    } else if (kind == "dataset") {
      dataset_lines.push_back(std::move(args));
    } else if (kind == "job") {
      job_lines.push_back(std::move(args));
    } else if (kind == "end") {
      saw_end = true;
      break;
    } else {
      return Status::InvalidArgument("unknown line kind '" + kind + "'");
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("truncated (no 'end' line)");
  }

  // Cluster shape mismatches are warnings, not errors: the operator may have
  // legitimately resized the cluster between restarts, and the replayed
  // requests re-derive all scheduling decisions against the new flags.
  if (!cluster_args.empty() && recovery != nullptr) {
    FieldReader cluster(cluster_args, "cluster");
    const std::int64_t gpus = cluster.Int("gpus");
    const std::int64_t cache = cluster.Int("cache");
    const double egress = cluster.Double("egress");
    const std::int64_t servers = cluster.Int("servers");
    if (!cluster.status().ok()) {
      return cluster.status();
    }
    if (gpus != config_.resources.total_gpus) {
      recovery->warnings.push_back("checkpoint cluster had " + std::to_string(gpus) +
                                   " GPUs, flags say " +
                                   std::to_string(config_.resources.total_gpus));
    }
    if (cache != config_.resources.total_cache) {
      recovery->warnings.push_back("checkpoint cluster had cache " + std::to_string(cache) +
                                   " B, flags say " +
                                   std::to_string(config_.resources.total_cache) + " B");
    }
    if (egress != config_.resources.remote_io) {
      recovery->warnings.push_back("checkpoint cluster had egress " + FormatExact(egress) +
                                   " B/s, flags say " +
                                   FormatExact(config_.resources.remote_io) + " B/s");
    }
    if (servers != config_.resources.num_servers) {
      recovery->warnings.push_back("checkpoint cluster had " + std::to_string(servers) +
                                   " servers, flags say " +
                                   std::to_string(config_.resources.num_servers));
    }
  }

  // Policy first: a reload counts as an event, and the planner line restored
  // below overwrites the epoch with the checkpointed one.
  {
    FieldReader policy(policy_args, "policy");
    const std::string name = policy.String("name");
    SchedulerOptions options = config_.scheduler;
    options.manage_remote_io = policy.Int("manage-remote-io") != 0;
    if (!policy.status().ok()) {
      return policy.status();
    }
    if (name != planner_->policy_name() ||
        options.manage_remote_io != config_.scheduler.manage_remote_io) {
      if (const Status st = planner_->ReloadPolicy(name, options); !st.ok()) {
        return Status::InvalidArgument("cannot restore policy '" + name + "': " + st.message());
      }
      config_.policy = name;
      config_.scheduler = options;
    }
  }

  {
    FieldReader clock(clock_args, "clock");
    FieldReader admission(admission_args, "admission");
    now_ = clock.Double("now");
    last_rid_ = clock.U64("last-rid");
    requests_ = clock.U64("requests");
    errors_ = clock.U64("errors");
    duplicates_ = clock.U64("duplicates");
    admission_->RestoreCounters(admission.U64("admitted"), admission.U64("queued"),
                                admission.U64("rejected"));
    for (const FieldReader* reader : {&clock, &admission}) {
      if (!reader->status().ok()) {
        return reader->status();
      }
    }
  }

  for (const RecordFields& args : dataset_lines) {
    FieldReader dataset(args, "dataset");
    const std::int64_t id = dataset.Int("id");
    const std::string name = dataset.String("name");
    const std::int64_t size = dataset.Int("size");
    const std::int64_t block = dataset.Int("block");
    if (!dataset.status().ok()) {
      return dataset.status();
    }
    Result<DatasetId> interned = table_.InternDataset(name, size, block);
    if (!interned.ok()) {
      return interned.status();
    }
    if (*interned != static_cast<DatasetId>(id)) {
      return Status::InvalidArgument("dataset '" + name + "' restored as id " +
                                     std::to_string(*interned) + ", checkpoint says " +
                                     std::to_string(id));
    }
  }

  for (const RecordFields& args : job_lines) {
    FieldReader line(args, "job");
    const std::int64_t id = line.Int("id");
    const std::string key = line.String("key");
    const std::string state_name = line.String("state");
    JobSpec spec;
    spec.name = key;
    spec.model = line.String("model");
    spec.num_gpus = static_cast<int>(line.Int("gpus"));
    spec.dataset = static_cast<DatasetId>(line.Int("dataset"));
    spec.ideal_io = line.Double("ideal-io");
    spec.total_bytes = line.Int("total-bytes");
    spec.step_data_size = line.Int("step-bytes");
    const double submit_t = line.Double("submit-t");
    const double admit_t = line.Double("admit-t");
    const double start_t = line.Double("start-t");
    const double finish_t = line.Double("finish-t");
    const std::int64_t remaining = line.Int("remaining");
    const std::int64_t effective = line.Int("effective");
    const bool running = line.Int("running") != 0;
    // Optional heterogeneity tokens (absent in checkpoints from untyped runs).
    const int gpu_type = args.count("gpu-type") != 0 ? static_cast<int>(line.Int("gpu-type")) : -1;
    if (!line.status().ok()) {
      return line.status();
    }
    Result<ServeJobState> state = ServeJobStateFromName(state_name);
    if (!state.ok()) {
      return state.status();
    }
    if (args.count("tenant") != 0) {
      spec.tenant = args.at("tenant");
    }
    if (args.count("speeds") != 0) {
      Result<std::vector<std::pair<std::string, double>>> speeds = ParseSpeeds(args.at("speeds"));
      if (!speeds.ok()) {
        return speeds.status();
      }
      spec.speed_factors = *std::move(speeds);
    }
    Result<ServeJob*> job = table_.Add(key, std::move(spec), submit_t, *state);
    if (!job.ok()) {
      return job.status();
    }
    if ((*job)->spec.id != static_cast<JobId>(id)) {
      return Status::InvalidArgument("job '" + key + "' restored as id " +
                                     std::to_string((*job)->spec.id) + ", checkpoint says " +
                                     std::to_string(id));
    }
    (*job)->admit_time = admit_t;
    (*job)->first_start_time = start_t;
    (*job)->finish_time = finish_t;
    (*job)->remaining_bytes = remaining;
    (*job)->effective_cache = effective;
    (*job)->running = running;
    (*job)->gpu_type = gpu_type;
  }

  // Planner last: the checkpointed epoch replaces whatever construction and
  // the policy restore counted, so epoch batching fires at the same virtual
  // instants it would have.  Older checkpoints' extra dirty-all/-reason/
  // -jobs/-datasets keys are ignored.
  FieldReader planner(planner_args, "planner");
  const double last_plan_t = planner.Double("last-plan-t");
  const std::uint64_t pending = planner.U64("dirty-events");
  if (!planner.status().ok()) {
    return planner.status();
  }
  planner_->RestoreEpoch(last_plan_t, pending, MakeSnapshot());
  return Status::Ok();
}

Status ServiceState::SyncJournal() {
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  return journal_->Sync();
}

RunReport ServiceState::Report() const {
  RunReport report;
  report.label = planner_->policy_name();
  report.engine = "serve";
  report.jobs = static_cast<int>(table_.size());
  // Fold the table into JobResults so the summary (and the per-tenant /
  // per-GPU-type breakdowns) goes through the same grouping as the engines'.
  std::vector<JobResult> results;
  results.reserve(table_.size());
  Seconds last_finish = 0;
  for (const auto& job : table_.jobs()) {
    if (job->state() != ServeJobState::kCompleted) {
      ++report.unfinished_jobs;
      continue;
    }
    JobResult r;
    r.id = job->spec.id;
    r.submit_time = job->submit_time;
    r.first_start_time = job->first_start_time;
    r.finish_time = job->finish_time;
    r.tenant = job->spec.tenant;
    if (job->gpu_type >= 0 && job->gpu_type < covered_topology_.num_gpu_types()) {
      r.gpu_type = covered_topology_.gpu_types()[static_cast<std::size_t>(job->gpu_type)].name;
    }
    results.push_back(std::move(r));
    if (job->finish_time > last_finish) {
      last_finish = job->finish_time;
    }
  }
  std::vector<JctSample> samples;
  samples.reserve(results.size());
  for (const JobResult& r : results) {
    JctSample s;
    s.jct_min = r.Jct() / 60.0;
    s.queue_min = r.QueueDelay() / 60.0;
    samples.push_back(s);
  }
  FillJctSummary(samples, &report.jct);
  report.tenants = GroupJctSummaries(
      results, +[](const JobResult& j) -> const std::string& { return j.tenant; });
  report.gpu_types = GroupJctSummaries(
      results, +[](const JobResult& j) -> const std::string& { return j.gpu_type; });
  report.makespan_min = last_finish / 60.0;
  report.AddExtra("policy", planner_->policy_name());
  report.AddExtra("full_solves", static_cast<std::int64_t>(planner_->full_solves()));
  report.AddExtra("reused_plans", static_cast<std::int64_t>(planner_->reused_plans()));
  report.AddExtra("admitted", static_cast<std::int64_t>(admission_->admitted()));
  report.AddExtra("rejected", static_cast<std::int64_t>(admission_->rejected()));
  return report;
}

}  // namespace silod
