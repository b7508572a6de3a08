#include "src/serve/job_table.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {
namespace {

// Inserts or erases `id` in the ascending `ids`.
template <typename Ids>
void SetMember(Ids& ids, JobId id, bool member) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (member) {
    ids.insert(it, id);
  } else {
    SILOD_CHECK(it != ids.end() && *it == id) << "job " << id << " missing from the index";
    ids.erase(it);
  }
}

}  // namespace

const char* ServeJobStateName(ServeJobState state) {
  switch (state) {
    case ServeJobState::kActive:
      return "active";
    case ServeJobState::kQueued:
      return "queued";
    case ServeJobState::kCompleted:
      return "completed";
    case ServeJobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Result<ServeJobState> ServeJobStateFromName(const std::string& name) {
  for (const ServeJobState state : {ServeJobState::kActive, ServeJobState::kQueued,
                                    ServeJobState::kCompleted, ServeJobState::kCancelled}) {
    if (name == ServeJobStateName(state)) {
      return state;
    }
  }
  return Status::InvalidArgument("unknown job state '" + name + "'");
}

std::uint64_t JobStateHash(const ServeJob& job) {
  Fnv1a64 h;
  h.U64(static_cast<std::uint64_t>(job.spec.id));
  h.String(job.key);
  h.String(ServeJobStateName(job.state()));
  h.U64(static_cast<std::uint64_t>(job.spec.num_gpus));
  h.U64(static_cast<std::uint64_t>(job.spec.dataset));
  h.Double(job.spec.ideal_io);
  h.U64(static_cast<std::uint64_t>(job.spec.total_bytes));
  h.U64(static_cast<std::uint64_t>(job.spec.step_data_size));
  h.String(job.spec.model);
  h.Double(job.submit_time);
  h.Double(job.admit_time);
  h.Double(job.first_start_time);
  h.Double(job.finish_time);
  h.U64(static_cast<std::uint64_t>(job.remaining_bytes));
  h.U64(static_cast<std::uint64_t>(job.effective_cache));
  h.U64(job.running ? 1 : 0);
  // Heterogeneity fields mix only when present, as in the checkpoint text.
  if (job.gpu_type >= 0) {
    h.U64(static_cast<std::uint64_t>(job.gpu_type) + 1);
  }
  if (!job.spec.tenant.empty()) {
    h.String(job.spec.tenant);
  }
  for (const auto& [type_name, factor] : job.spec.speed_factors) {
    h.String(type_name);
    h.Double(factor);
  }
  // splitmix64's finalizer.
  std::uint64_t z = h.hash();
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result<DatasetId> JobTable::InternDataset(const std::string& name, Bytes size,
                                          Bytes block_size) {
  const auto it = datasets_by_name_.find(name);
  if (it != datasets_by_name_.end()) {
    const Dataset& existing = catalog_.Get(it->second);
    if (existing.size != size || existing.block_size != block_size) {
      return Status::InvalidArgument(
          "dataset '" + name + "' already interned with size " + std::to_string(existing.size) +
          "/block " + std::to_string(existing.block_size) + ", submit disagrees (" +
          std::to_string(size) + "/" + std::to_string(block_size) + ")");
    }
    return it->second;
  }
  const DatasetId id = catalog_.Add(name, size, block_size);
  datasets_by_name_.emplace(name, id);
  catalog_hash_.String(name);
  catalog_hash_.U64(static_cast<std::uint64_t>(size));
  catalog_hash_.U64(static_cast<std::uint64_t>(block_size));
  return id;
}

Result<ServeJob*> JobTable::Add(const std::string& key, JobSpec spec, Seconds submit_time,
                                ServeJobState state) {
  if (jobs_by_key_.count(key) > 0) {
    return Status::AlreadyExists("job '" + key + "' already submitted");
  }
  auto job = std::make_unique<ServeJob>();
  job->key = key;
  job->spec = std::move(spec);
  job->spec.id = static_cast<JobId>(jobs_.size());
  job->spec.submit_time = submit_time;
  job->submit_time = submit_time;
  job->remaining_bytes = job->spec.total_bytes;
  job->state_ = state;
  ServeJob* raw = job.get();
  jobs_by_key_.emplace(key, raw->spec.id);
  jobs_.push_back(std::move(job));
  Index(*raw, /*enter=*/true);
  return raw;
}

void JobTable::SetState(ServeJob* job, ServeJobState to) {
  const ServeJobState from = job->state_;
  const bool valid =
      (from == ServeJobState::kQueued &&
       (to == ServeJobState::kActive || to == ServeJobState::kCancelled)) ||
      (from == ServeJobState::kActive &&
       (to == ServeJobState::kCompleted || to == ServeJobState::kCancelled));
  SILOD_CHECK(valid) << "job '" << job->key << "' cannot go from " << ServeJobStateName(from)
                     << " to " << ServeJobStateName(to);
  Index(*job, /*enter=*/false);
  job->state_ = to;
  Index(*job, /*enter=*/true);
}

void JobTable::Index(const ServeJob& job, bool enter) {
  const JobId id = job.spec.id;
  switch (job.state_) {
    case ServeJobState::kActive:
      SetMember(active_, id, enter);
      active_gpu_demand_ += enter ? job.spec.num_gpus : -job.spec.num_gpus;
      break;
    case ServeJobState::kQueued:
      SetMember(queued_, id, enter);
      break;
    case ServeJobState::kCompleted:
    case ServeJobState::kCancelled:
      // Terminal states are never left, so only entering one can happen.
      unfolded_.push_back(id);
      break;
  }
  std::size_t& count = counts_[static_cast<std::size_t>(job.state_)];
  count = enter ? count + 1 : count - 1;
}

void JobTable::FoldRetired() {
  for (const JobId id : unfolded_) {
    retired_sum_ += JobStateHash(*jobs_[static_cast<std::size_t>(id)]);
  }
  unfolded_.clear();
}

std::uint64_t JobTable::retired_sum() const {
  SILOD_CHECK(unfolded_.empty()) << unfolded_.size() << " retired jobs not folded yet";
  return retired_sum_;
}

Result<ServeJob*> JobTable::Find(const std::string& key) {
  const auto it = jobs_by_key_.find(key);
  if (it == jobs_by_key_.end()) {
    return Status::NotFound("no job '" + key + "'");
  }
  return jobs_[static_cast<std::size_t>(it->second)].get();
}

ServeJob* JobTable::Get(JobId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    return nullptr;
  }
  return jobs_[static_cast<std::size_t>(id)].get();
}

const ServeJob* JobTable::Get(JobId id) const {
  return const_cast<JobTable*>(this)->Get(id);
}

Snapshot JobTable::BuildSnapshot(Seconds now, const ClusterResources& resources,
                                 const ClusterTopology* topology) const {
  Snapshot snapshot;
  snapshot.now = now;
  snapshot.resources = resources;
  snapshot.catalog = &catalog_;
  snapshot.topology = topology;
  snapshot.jobs.reserve(active_.size());
  for (const JobId id : active_) {
    const ServeJob& job = *jobs_[static_cast<std::size_t>(id)];
    JobView view;
    view.spec = &job.spec;
    view.remaining_bytes = job.remaining_bytes;
    view.effective_cache = job.effective_cache;
    view.running = job.running;
    view.gpu_type = job.gpu_type;
    snapshot.jobs.push_back(view);
  }
  AnnotateSnapshotSpeeds(&snapshot);
  return snapshot;
}

}  // namespace silod
