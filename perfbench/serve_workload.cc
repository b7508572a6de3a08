// serve-replay-sjf: a trace's submit/complete history replayed closed-loop
// into a silodd child over one Unix-socket connection, with seeded reads.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "metrics.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/policy_registry.h"
#include "src/serve/journal.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sim/flow_engine.h"
#include "src/sim/serve_replay.h"
#include "timed_scheduler.h"
#include "tracer.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr char kPolicy[] = "sjf+silod";
// One `stats` read after every this many mutating requests.
constexpr int kStatsEvery = 32;
// A daemon that stops answering fails the run instead of hanging it.
constexpr int kClientTimeoutMs = 10'000;
// The journal is written on every mutating request but never fdatasync'd:
// at batch:64 1.6% of writes would wait for the disk, more than the 1% a p99
// leaves beyond it, so write_p99_us would time the shared disk's fsync tail
// rather than the request path.
constexpr char kJournalSync[] = "none";

// A 64-GPU cluster (cache and egress scaled 8x from the micro-benchmark's
// 8 GPUs), shared by the batch engine, the daemon and the in-process replay.
silod::SimConfig ServeCluster() {
  silod::SimConfig config;
  config.resources.total_gpus = 64;
  config.resources.total_cache = silod::TB(16);
  config.resources.remote_io = silod::Gbps(12.8);
  config.resources.num_servers = 16;
  return config;
}

// The daemon flags matching ServeCluster(); admission is wide open so the
// daemon's waiting pool equals the batch engine's.  journal-max-mb stays at
// its 64 MB default (InProcessJournal mirrors it).
std::vector<std::string> DaemonArgs(const std::string& socket, const std::string& journal) {
  return {"--socket=" + socket, std::string("--policy=") + kPolicy, "--gpus=64",
          "--cache-tb=16",      "--egress-gbps=12.8",              "--servers=16",
          "--max-gpu-load=1e18", "--journal=" + journal,
          std::string("--journal-sync=") + kJournalSync};
}

silod::JournalOptions InProcessJournal(const std::string& path) {
  silod::JournalOptions options;
  options.path = path;
  SILOD_CHECK(silod::ParseJournalSyncSpec(kJournalSync, &options).ok());
  options.max_bytes = 64ull * 1024 * 1024;
  std::remove(path.c_str());
  return options;
}

silod::ServiceConfig InProcessConfig() {
  silod::ServiceConfig config;
  config.policy = kPolicy;
  config.resources = ServeCluster().resources;
  config.admission.max_gpu_load = 1e18;
  return config;
}

struct Request {
  silod::ServeRequest request;
  bool write = false;
};

struct ServeInputs {
  silod::RunReport batch;
  std::vector<Request> requests;
  double trace_gen_s = 0;
};

// Set-up (without the daemon): trace generation, the batch flow-engine run
// that fixes each job's finish time, and the request sequence.
ServeInputs Setup(const RunOptions& options, int trace_index) {
  const std::uint64_t seed = TraceSeed(options.seed, trace_index);
  ServeInputs in;
  silod::TraceOptions trace_options;
  trace_options.num_jobs = options.jobs > 0 ? options.jobs : 3000;
  trace_options.mean_interarrival = silod::Minutes(4);
  trace_options.median_duration = silod::Minutes(30);
  trace_options.seed = seed;
  const auto gen_start = std::chrono::steady_clock::now();
  const silod::Trace trace = silod::TraceGenerator(trace_options).Generate();
  in.trace_gen_s = SecondsSince(gen_start);

  silod::Result<std::shared_ptr<silod::Scheduler>> scheduler =
      silod::MakeSchedulerByName(kPolicy);
  SILOD_CHECK(scheduler.ok()) << scheduler.status().ToString();
  silod::FlowEngine engine(&trace, *scheduler, ServeCluster());
  const silod::SimResult result = engine.Run();
  in.batch = silod::MakeRunReport(kPolicy, "flow", result);

  // Writes: the replay schedule with monotone rid=.  Reads: a query of a
  // seeded-random already-submitted key after each submit, and a stats
  // every kStatsEvery writes.
  silod::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<std::size_t> submitted;
  std::uint64_t rid = 0;
  for (const silod::ReplayEvent& event : silod::BuildReplaySchedule(trace, result)) {
    ++rid;
    in.requests.push_back(
        {event.complete ? silod::CompleteRequestFor(trace, event.job, event.t, rid)
                        : silod::SubmitRequestFor(trace, event.job, event.t, rid),
         true});
    if (!event.complete) {
      submitted.push_back(event.job);
      silod::ServeRequest query;
      query.verb = "query";
      query.args["key"] = "job" + std::to_string(submitted[rng.NextBelow(submitted.size())]);
      in.requests.push_back({std::move(query), false});
    }
    if (rid % kStatsEvery == 0) {
      silod::ServeRequest stats;
      stats.verb = "stats";
      in.requests.push_back({std::move(stats), false});
    }
  }
  return in;
}

// A silodd child: spawned with its output in a log file, killed and reaped
// by the destructor unless Wait() reaped it first.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error) {
    std::vector<std::string> argv_storage = {binary};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      *error = "cannot spawn " + binary + ": " + std::strerror(rc);
      return false;
    }
    pid_ = pid;
    return true;
  }

  // True while the child has not exited.
  bool Running() {
    if (pid_ <= 0) {
      return false;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  // Reaps the child; its exit status and peak RSS (wait4 rusage, MB).
  bool Wait(int* status, double* peak_rss_mb) {
    struct rusage usage {};
    if (pid_ <= 0 || wait4(pid_, status, 0, &usage) != pid_) {
      return false;
    }
    pid_ = -1;
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
    return true;
  }

 private:
  pid_t pid_ = -1;
};

std::string FormatDigest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

double Field(const silod::ServeResponse& response, const std::string& key) {
  const auto it = response.fields.find(key);
  return it == response.fields.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
}

// The daemon's `report` response as a RunReport, for JctSummariesIdentical.
silod::RunReport ReportFromFields(const silod::ServeResponse& response) {
  silod::RunReport report;
  report.jobs = static_cast<int>(Field(response, "jobs"));
  report.unfinished_jobs = static_cast<int>(Field(response, "unfinished"));
  report.jct.finished = static_cast<int>(Field(response, "finished"));
  report.jct.avg_jct_min = Field(response, "avg-jct-min");
  report.jct.p50_jct_min = Field(response, "p50-jct-min");
  report.jct.p90_jct_min = Field(response, "p90-jct-min");
  report.jct.p95_jct_min = Field(response, "p95-jct-min");
  report.jct.p99_jct_min = Field(response, "p99-jct-min");
  report.makespan_min = Field(response, "makespan-min");
  return report;
}

struct SocketRep {
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  double avg_jct_min = 0;
  std::uint64_t requests = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::string digest;  // The daemon's final state-digest.
};

// One repetition against a fresh daemon: set-up, the timed replay, then the
// report / stats / shutdown exchange and the child's exit.
SocketRep RunSocketRep(const RunOptions& options, int trace, RunOutput* out) {
  SocketRep rep;
  const std::string socket = options.run_dir + "/silodd.sock";
  const std::string journal = options.run_dir + "/silodd.journal";
  std::remove(journal.c_str());

  const auto setup_start = std::chrono::steady_clock::now();
  const ServeInputs in = Setup(options, trace);
  Daemon daemon;
  std::string error;
  if (!daemon.Start(options.silodd, DaemonArgs(socket, journal), options.run_dir + "/silodd.log",
                    &error)) {
    out->Fail(error);
    return rep;
  }
  std::optional<silod::ServeClient> client;
  while (!client.has_value()) {
    silod::Result<silod::ServeClient> connected =
        silod::ServeClient::Connect(socket, silod::ClientOptions{kClientTimeoutMs});
    if (connected.ok()) {
      client.emplace(std::move(connected).value());
    } else if (!daemon.Running() || SecondsSince(setup_start) > 30) {
      out->Fail("silodd never bound " + socket + ": " + connected.status().ToString());
      return rep;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  rep.setup_s = SecondsSince(setup_start);

  std::uint64_t rejected = 0;
  std::string first_error;
  const std::int64_t first_sent = NowNs();
  std::int64_t last_read = first_sent;
  for (const Request& r : in.requests) {
    const std::int64_t sent = NowNs();
    silod::Result<silod::ServeResponse> response = client->Call(r.request);
    last_read = NowNs();
    (r.write ? rep.write_us : rep.read_us).push_back(static_cast<double>(last_read - sent) * 1e-3);
    if (!response.ok() || !response->ok()) {
      ++rejected;
      if (first_error.empty()) {
        first_error = r.request.verb + ": " +
                      (response.ok() ? response->error : response.status().ToString());
      }
    }
  }
  rep.wall_s = static_cast<double>(last_read - first_sent) * 1e-9;
  rep.requests = in.requests.size();
  out->attempted += rep.requests;
  out->failed += rejected;
  if (rejected > 0) {
    out->Fail(std::to_string(rejected) + " request(s) failed, first: " + first_error);
  }

  silod::ServeRequest report_request;
  report_request.verb = "report";
  silod::Result<silod::ServeResponse> report = client->Call(report_request);
  silod::ServeRequest stats_request;
  stats_request.verb = "stats";
  silod::Result<silod::ServeResponse> stats = client->Call(stats_request);
  silod::ServeRequest shutdown_request;
  shutdown_request.verb = "shutdown";
  silod::Result<silod::ServeResponse> shutdown = client->Call(shutdown_request);
  client.reset();
  int status = 0;
  if (!daemon.Wait(&status, &rep.peak_rss_mb) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    out->Fail("silodd did not exit cleanly");
    ++out->failed;
  }
  if (!report.ok() || !report->ok() || !stats.ok() || !stats->ok() || !shutdown.ok()) {
    out->Fail("report/stats/shutdown exchange failed");
    ++out->failed;
    return rep;
  }
  const silod::RunReport served = ReportFromFields(*report);
  rep.avg_jct_min = served.jct.avg_jct_min;
  if (!silod::JctSummariesIdentical(in.batch, served)) {
    out->Fail("daemon report differs from the batch flow engine");
    ++out->failed;
  }
  rep.digest = stats->fields["state-digest"];
  return rep;
}

struct InProcessRep {
  double wall_s = 0;  // Summed decode + handle + encode time.
  std::string digest;
  MetricSet layers;   // Traced only.
};

// Replays the identical request sequence through an in-process ServiceState
// with the daemon's configuration and journal policy.  Traced, it also
// times each layer around the request: snapshot and GPU-demand scans, a
// journal append of each mutating payload, and a re-solve of the
// post-request snapshot through a fresh registry scheduler.
InProcessRep ReplayInProcess(const RunOptions& options, const ServeInputs& in, Tracer* tracer,
                             RunOutput* out) {
  InProcessRep rep;
  silod::RecoveryInfo recovery;
  silod::Result<std::unique_ptr<silod::ServiceState>> made = silod::ServiceState::CreateFromJournal(
      InProcessConfig(), InProcessJournal(options.run_dir + "/inproc.journal"), &recovery);
  SILOD_CHECK(made.ok()) << made.status().ToString();
  silod::ServiceState& service = **made;

  std::unique_ptr<silod::Journal> probe_journal;
  std::shared_ptr<TimedScheduler> solver;
  if (tracer != nullptr) {
    silod::JournalScan scan;
    silod::Result<std::unique_ptr<silod::Journal>> opened =
        silod::Journal::Open(InProcessJournal(options.run_dir + "/probe.journal"), &scan);
    SILOD_CHECK(opened.ok()) << opened.status().ToString();
    probe_journal = std::move(opened).value();
    silod::Result<std::shared_ptr<silod::Scheduler>> fresh = silod::MakeSchedulerByName(kPolicy);
    SILOD_CHECK(fresh.ok()) << fresh.status().ToString();
    solver = std::make_shared<TimedScheduler>(*fresh, tracer, kCapturePoints);
  }

  std::uint64_t errors = 0;
  std::int64_t busy_ns = 0;
  for (const Request& r : in.requests) {
    const std::string payload = r.request.Encode();
    const std::int64_t start = NowNs();
    bool ok = false;
    {
      ScopedSpan request_span(tracer, "serve.request");
      silod::Result<silod::ServeRequest> decoded = [&] {
        ScopedSpan span(tracer, "serve.decode");
        return silod::ServeRequest::Decode(payload);
      }();
      if (decoded.ok()) {
        const silod::ServeResponse response = [&] {
          ScopedSpan span(tracer, r.write ? "serve.handle.write" : "serve.handle.read");
          return service.Handle(*decoded);
        }();
        ScopedSpan span(tracer, "serve.encode");
        ok = response.ok() && !response.Encode().empty();
      }
    }
    busy_ns += NowNs() - start;
    errors += ok ? 0 : 1;
    if (tracer == nullptr) {
      continue;
    }
    ScopedSpan probe(tracer, "serve.probe");
    if (r.write) {
      ScopedSpan span(tracer, "serve.journal_append");
      SILOD_CHECK(probe_journal->AppendRequest(payload).ok()) << "probe journal append failed";
    }
    const silod::Snapshot snapshot = [&] {
      ScopedSpan span(tracer, "serve.snapshot");
      return service.MakeSnapshot();
    }();
    {
      ScopedSpan span(tracer, "serve.gpu_demand");
      volatile int demand = service.jobs().ActiveGpuDemand();
      (void)demand;
    }
    solver->Schedule(snapshot);
  }
  rep.wall_s = static_cast<double>(busy_ns) * 1e-9;
  rep.digest = FormatDigest(service.StateDigest());
  if (errors > 0) {
    out->Fail(std::to_string(errors) + " in-process request(s) failed");
    out->failed += errors;
  }
  if (tracer == nullptr) {
    return rep;
  }

  silod::ServeRequest stats_request;
  stats_request.verb = "stats";
  const silod::ServeResponse stats = service.Handle(stats_request);
  MetricSet& m = rep.layers;
  const std::vector<double> snapshot_us = tracer->Micros("serve.snapshot");
  const std::size_t tenth = std::max<std::size_t>(1, snapshot_us.size() / 10);
  const double first = Mean({snapshot_us.begin(), snapshot_us.begin() + tenth});
  const double last = Mean({snapshot_us.end() - tenth, snapshot_us.end()});
  const double reused = Field(stats, "jobs-reused");
  const double rescored = Field(stats, "jobs-rescored");
  m.Set("serve.handle_write_p50_us", Median(tracer->Micros("serve.handle.write")), "us");
  m.Set("serve.handle_write_p99_us", TailPercentile(tracer->Micros("serve.handle.write"), 99).value,
        "us");
  m.Set("serve.handle_read_p99_us", TailPercentile(tracer->Micros("serve.handle.read"), 99).value,
        "us");
  m.Set("serve.decode_ns_mean", Mean(tracer->Micros("serve.decode")) * 1e3, "ns");
  m.Set("serve.encode_ns_mean", Mean(tracer->Micros("serve.encode")) * 1e3, "ns");
  m.Set("serve.snapshot_us_p99", TailPercentile(snapshot_us, 99).value, "us");
  m.Set("serve.gpu_demand_us_p99", TailPercentile(tracer->Micros("serve.gpu_demand"), 99).value,
        "us");
  m.Set("serve.snapshot_growth", first > 0 ? last / first : 0, "ratio");
  m.Set("serve.journal_append_p50_us", Median(tracer->Micros("serve.journal_append")), "us");
  m.Set("serve.journal_append_p99_us",
        TailPercentile(tracer->Micros("serve.journal_append"), 99).value, "us");
  m.Set("serve.journal_bytes", static_cast<double>(service.journal()->size_bytes()), "bytes");
  m.Set("serve.full_solves", Field(stats, "full-solves"), "count");
  m.Set("serve.delta_solves", Field(stats, "delta-solves"), "count");
  m.Set("serve.delta_reuse_ratio", reused + rescored > 0 ? reused / (reused + rescored) : 0,
        "ratio");

  const std::vector<double> solve_us = tracer->Micros("sched.solve");
  m.Set("sched.solve_calls", static_cast<double>(solve_us.size()), "count");
  m.Set("sched.solve_s", tracer->TotalSeconds("sched.solve"), "s");
  m.Set("sched.solve_p50_us", Median(solve_us), "us");
  m.Set("sched.solve_p99_us", TailPercentile(solve_us, 99).value, "us");
  m.Set("sched.snapshot_jobs_mean", solver->MeanSnapshotJobs(), "jobs");
  const EstimatorTiming est = TimeEstimator(solver->captured(), tracer, 0.05);
  m.Set("estimator.batch_evals", static_cast<double>(est.batch_evals), "count");
  m.Set("estimator.batch_ns_per_job", est.ns_per_job, "ns");
  m.Set("workload.trace_gen_s", in.trace_gen_s, "s");
  return rep;
}

}  // namespace

RunOutput RunServeWorkload(const RunOptions& options) {
  RunOutput out;
  if (options.silodd.empty()) {
    out.Fail("serve-replay-sjf needs the silodd binary (--silodd)");
    return out;
  }
  // The daemon's state-digest of each trace's first repetition; later
  // repetitions and the in-process replays must reproduce it.
  std::vector<std::string> digests(kTracesPerRun);
  std::unique_ptr<Tracer> last_tracer;
  out.metrics = RepeatOverTraces(options, &out, [&](int trace) {
    const SocketRep socket = RunSocketRep(options, trace, &out);
    std::string& digest = digests[static_cast<std::size_t>(trace)];
    if (digest.empty()) {
      digest = socket.digest;
    } else if (socket.digest != digest) {
      out.Fail("daemon state-digest " + socket.digest + " != the first repetition's " + digest);
      ++out.failed;
    }
    RepOutput rep;
    MetricSet& m = rep.metrics;
    if (!options.trace) {
      m.Set("setup_s", socket.setup_s, "s");
      m.Set("wall_s", socket.wall_s, "s");
      m.Set("peak_rss_mb", socket.peak_rss_mb, "MB");
      m.Set("sim_avg_jct_min", socket.avg_jct_min, "min");
      m.Set("req_per_s", static_cast<double>(socket.requests) / socket.wall_s, "1/s");
      rep.write_us = socket.write_us;
      rep.read_us = socket.read_us;
      return rep;
    }
    const ServeInputs in = Setup(options, trace);
    const InProcessRep plain = ReplayInProcess(options, in, nullptr, &out);
    auto tracer = std::make_unique<Tracer>();
    InProcessRep traced = ReplayInProcess(options, in, tracer.get(), &out);
    for (const std::string& replayed : {plain.digest, traced.digest}) {
      if (replayed != socket.digest) {
        out.Fail("daemon state-digest " + socket.digest + " != in-process replay " + replayed);
        ++out.failed;
      }
    }
    m = std::move(traced.layers);
    m.Set("sched.solve_share", m.Get("sched.solve_s") / socket.wall_s, "ratio");
    m.Set("serve.transport_us_p50", Median(socket.write_us) - m.Get("serve.handle_write_p50_us"),
          "us");
    m.Set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1, "ratio");
    last_tracer = std::move(tracer);
    return rep;
  });
  if (last_tracer != nullptr) {
    WriteSpans(options, *last_tracer, &out);
  }
  return out;
}

}  // namespace perfbench
