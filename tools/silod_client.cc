// silod_client: CLI for the silodd daemon (docs/MODEL.md §11).
//
// Ad-hoc requests (args are the daemon's key=value tokens, verbatim):
//
//   silod_client --socket=/tmp/silod.sock stats
//   silod_client --socket=/tmp/silod.sock submit key=j1 t=0 gpus=1
//       ideal-io=100e6 total-bytes=10000000000 dataset=imagenet
//       dataset-size=150000000000   # byte counts are integers, rates parse 1e6
//   silod_client --socket=/tmp/silod.sock reload-policy policy=sjf+silod
//
// Trace replay (--serve-trace): runs the batch flow engine locally to learn
// each job's finish time, feeds the daemon the same history as timed
// submit/complete requests, and prints the daemon's RunReport JSON.  With
// --check the daemon's JCT summary must match the local batch engine's
// bit-for-bit (exit 1 otherwise) — the socket-transport version of
// sim/serve_replay.h's cross-check.  Every replay request carries a monotone
// rid= (the 1-based event index), so re-running the replay against a daemon
// that crashed and recovered mid-trace turns the already-applied prefix into
// duplicate no-ops; --max-events=N stops after N events (the crash-injection
// harness in tools/ci.sh uses this to kill the daemon at a known point).
//
// Exit codes: 0 success; 1 --check mismatch; 2 usage error, connect failure
// or deadline exceeded; 3 transport/protocol error; 4 the daemon rejected
// the request.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "src/common/backoff.h"
#include "src/common/flags.h"
#include "src/common/topology.h"
#include "src/core/policy_registry.h"
#include "src/serve/server.h"
#include "src/sim/flow_engine.h"
#include "src/sim/serve_replay.h"
#include "src/workload/trace_io.h"

using namespace silod;

namespace {

constexpr int kExitCheckMismatch = 1;
constexpr int kExitConnectOrTimeout = 2;
constexpr int kExitProtocol = 3;
constexpr int kExitDaemonRejected = 4;

// A ServeClient wrapper with connect/read deadlines and transparent retry:
// on a transport failure the connection is dropped, re-dialed after an
// exponential backoff, and the same request (same rid) re-sent — safe
// against a daemon restart because the journal's rid dedup makes redelivered
// mutations no-ops.
class RetryingClient {
 public:
  RetryingClient(std::string socket_path, ClientOptions options, int retries,
                 double retry_base_ms)
      : socket_path_(std::move(socket_path)), options_(options), retries_(retries) {
    backoff_options_.base = retry_base_ms / 1000.0;
    backoff_options_.cap = backoff_options_.base * 64;
  }

  // On failure, *exit_code holds the taxonomy code for the LAST error.
  Result<ServeResponse> Call(const ServeRequest& request, int* exit_code) {
    Backoff backoff(backoff_options_);
    for (int attempt = 0;; ++attempt) {
      Status failure = Status::Ok();
      bool connecting = false;
      if (!client_.has_value()) {
        connecting = true;
        Result<ServeClient> connected = ServeClient::Connect(socket_path_, options_);
        if (connected.ok()) {
          client_.emplace(std::move(connected).value());
          connecting = false;
        } else {
          failure = connected.status();
        }
      }
      if (failure.ok()) {
        Result<ServeResponse> response = client_->Call(request);
        if (response.ok()) {
          *exit_code = 0;
          return response;
        }
        failure = response.status();
        client_.reset();  // The stream is no longer trustworthy.
      }
      if (attempt >= retries_) {
        *exit_code = (connecting || failure.code() == StatusCode::kDeadlineExceeded)
                         ? kExitConnectOrTimeout
                         : kExitProtocol;
        return failure;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff.NextDelay()));
    }
  }

 private:
  std::string socket_path_;
  ClientOptions options_;
  int retries_;
  BackoffOptions backoff_options_;
  std::optional<ServeClient> client_;
};

// Renders response fields as a flat JSON object (values as JSON strings;
// numeric consumers parse them — the fields are exact decimal renderings).
std::string FieldsToJson(const ServeResponse& response) {
  std::string json = "{";
  bool first = true;
  for (const auto& [key, value] : response.fields) {
    if (!first) {
      json += ", ";
    }
    first = false;
    std::string escaped;
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
      }
      escaped += c;
    }
    json += "\"" + key + "\": \"" + escaped + "\"";
  }
  json += "}";
  return json;
}

int PrintResponse(const ServeResponse& response, bool json) {
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.ToStatus().ToString().c_str());
    return kExitDaemonRejected;
  }
  if (json) {
    std::printf("%s\n", FieldsToJson(response).c_str());
  } else {
    for (const auto& [key, value] : response.fields) {
      std::printf("%s=%s\n", key.c_str(), value.c_str());
    }
  }
  return 0;
}

// Compares a report-response scalar field against the local batch value; the
// daemon renders with FormatExact, which round-trips doubles exactly.  Both
// sides being NaN (the null statistics of an empty summary, finished == 0)
// counts as a match — NaN never compares equal to itself.
bool FieldMatches(const ServeResponse& response, const std::string& key, double expected) {
  FieldReader report(response.fields, "report");
  const double got = report.Double(key);
  return report.status().ok() && (got == expected || (std::isnan(got) && std::isnan(expected)));
}

int RunServeTrace(const FlagSet& flags, RetryingClient* client) {
  Trace trace;
  if (!flags.GetString("trace").empty()) {
    Result<Trace> loaded = ReadTraceFile(flags.GetString("trace"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "--trace: %s\n", loaded.status().ToString().c_str());
      return 2;
    }
    trace = *std::move(loaded);
  } else {
    TraceOptions options;
    options.num_jobs = static_cast<int>(flags.GetInt("jobs"));
    options.mean_interarrival = Minutes(flags.GetDouble("interarrival-min"));
    options.median_duration = Minutes(flags.GetDouble("median-duration-min"));
    options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
    trace = TraceGenerator(options).Generate();
  }

  // The local batch run must see the same cluster the daemon was started
  // with; these flags mirror silodd's.
  SimConfig config;
  config.resources.total_gpus = static_cast<int>(flags.GetInt("gpus"));
  if (const Status st = SetStorageFromFlags(flags.GetDouble("cache-tb"),
                                            flags.GetDouble("egress-gbps"),
                                            flags.GetDouble("per-job-cap-mbps"), &config.resources);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  config.resources.num_servers = static_cast<int>(flags.GetInt("servers"));
  if (!flags.GetString("topology").empty()) {
    Result<ClusterTopology> topology = ClusterTopology::Parse(flags.GetString("topology"));
    if (!topology.ok()) {
      std::fprintf(stderr, "--topology: %s\n", topology.status().ToString().c_str());
      return 2;
    }
    config.topology = *std::move(topology);
  }
  const std::string policy = flags.GetString("policy");
  SchedulerOptions scheduler_options;
  scheduler_options.manage_remote_io = flags.GetBool("manage-remote-io");
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, scheduler_options);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "--policy: %s\n", scheduler.status().ToString().c_str());
    return 2;
  }
  FlowEngine engine(&trace, *scheduler, config);
  const SimResult result = engine.Run();
  const RunReport batch = MakeRunReport(policy, "flow", result);

  const std::int64_t max_events = flags.GetInt("max-events");
  std::uint64_t rid = 0;
  int exit_code = 0;
  for (const ReplayEvent& event : BuildReplaySchedule(trace, result)) {
    if (max_events > 0 && rid >= static_cast<std::uint64_t>(max_events)) {
      std::fprintf(stderr, "serve-trace: stopped after %llu event(s) (--max-events)\n",
                   static_cast<unsigned long long>(rid));
      return 0;
    }
    ++rid;
    const ServeRequest request = event.complete
                                     ? CompleteRequestFor(trace, event.job, event.t, rid)
                                     : SubmitRequestFor(trace, event.job, event.t, rid);
    Result<ServeResponse> response = client->Call(request, &exit_code);
    if (!response.ok()) {
      std::fprintf(stderr, "replay %s: %s\n", request.verb.c_str(),
                   response.status().ToString().c_str());
      return exit_code;
    }
    if (!response->ok()) {
      std::fprintf(stderr, "replay %s job%zu: %s\n", request.verb.c_str(), event.job,
                   response->error.c_str());
      return kExitDaemonRejected;
    }
  }

  ServeRequest report_request;
  report_request.verb = "report";
  Result<ServeResponse> report = client->Call(report_request, &exit_code);
  if (!report.ok()) {
    std::fprintf(stderr, "report: %s\n", report.status().ToString().c_str());
    return exit_code;
  }
  if (!report->ok()) {
    std::fprintf(stderr, "report: %s\n", report->ToStatus().ToString().c_str());
    return kExitDaemonRejected;
  }
  std::printf("%s\n", report->fields["json"].c_str());

  if (flags.GetBool("check")) {
    const bool identical =
        report->fields["jobs"] == std::to_string(batch.jobs) &&
        report->fields["unfinished"] == std::to_string(batch.unfinished_jobs) &&
        report->fields["finished"] == std::to_string(batch.jct.finished) &&
        FieldMatches(*report, "avg-jct-min", batch.jct.avg_jct_min) &&
        FieldMatches(*report, "p50-jct-min", batch.jct.p50_jct_min) &&
        FieldMatches(*report, "p90-jct-min", batch.jct.p90_jct_min) &&
        FieldMatches(*report, "p95-jct-min", batch.jct.p95_jct_min) &&
        FieldMatches(*report, "p99-jct-min", batch.jct.p99_jct_min) &&
        FieldMatches(*report, "makespan-min", batch.makespan_min);
    if (!identical) {
      std::fprintf(stderr, "cross-check FAILED: daemon JCT summary differs from batch engine\n");
      std::fprintf(stderr, "batch:\n%s\n", batch.ToJson().c_str());
      return kExitCheckMismatch;
    }
    std::fprintf(stderr, "cross-check OK: daemon report matches the batch engine (%d jobs)\n",
                 batch.jobs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("socket", "", "silodd Unix socket path (required)");
  flags.Define("json", "false", "print responses as a JSON object");
  flags.Define("timeout-ms", "10000",
               "connect/read/write deadline per request (ms); 0 = block forever");
  flags.Define("retries", "0",
               "re-dial and re-send this many times on connect/transport failure (replayed "
               "mutations carry rids, so a recovered daemon dedupes them)");
  flags.Define("retry-base-ms", "50", "initial retry backoff (doubles per attempt, capped)");
  flags.Define("serve-trace", "false",
               "replay a workload trace as timed submit/complete requests and print the "
               "daemon's RunReport JSON");
  flags.Define("check", "false",
               "with --serve-trace: verify the daemon's JCT summary matches the local batch "
               "flow engine bit-for-bit (exit 1 on mismatch)");
  flags.Define("max-events", "0",
               "with --serve-trace: stop (exit 0) after this many replay events, skipping the "
               "report; 0 = replay everything");
  flags.Define("trace", "", "replay this trace CSV instead of generating one");
  flags.Define("jobs", "20", "jobs to generate (ignored with --trace)");
  flags.Define("interarrival-min", "4", "mean job inter-arrival (minutes)");
  flags.Define("median-duration-min", "30", "median ideal job duration (minutes)");
  flags.Define("seed", "3", "trace RNG seed");
  flags.Define("policy", "fifo+silod", "policy for the local batch cross-check run");
  flags.Define("manage-remote-io", "true", "SiloD throttles remote IO (ablation: false)");
  flags.Define("gpus", "8", "cluster GPU count (must match the daemon)");
  flags.Define("cache-tb", "2", "cluster cache pool (TB, must match the daemon)");
  flags.Define("egress-gbps", "1.6", "egress limit (Gbps, must match the daemon)");
  flags.Define("per-job-cap-mbps", "0", "per-job remote-IO cap (MB/s); 0 = unlimited");
  flags.Define("servers", "1", "cache server count (must match the daemon)");
  flags.Define("topology", "",
               "topology spec for the local cross-check run, incl. \"gpu-type name=.. count=.. "
               "speed=..\" entries (must match the daemon's --topology)");
  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Help("silod_client").c_str());
    return 2;
  }
  if (flags.GetString("socket").empty()) {
    std::fprintf(stderr, "--socket is required\n%s", flags.Help("silod_client").c_str());
    return 2;
  }
  const std::int64_t timeout_ms = flags.GetInt("timeout-ms");
  const std::int64_t retries = flags.GetInt("retries");
  if (timeout_ms < 0 || retries < 0 || flags.GetDouble("retry-base-ms") <= 0) {
    std::fprintf(stderr,
                 "--timeout-ms and --retries must be >= 0, --retry-base-ms must be > 0\n");
    return 2;
  }
  ClientOptions options;
  options.timeout_ms = static_cast<int>(timeout_ms);
  RetryingClient client(flags.GetString("socket"), options, static_cast<int>(retries),
                        flags.GetDouble("retry-base-ms"));

  if (flags.GetBool("serve-trace")) {
    return RunServeTrace(flags, &client);
  }

  const std::vector<std::string>& args = flags.positional();
  if (args.empty()) {
    std::fprintf(stderr, "usage: silod_client --socket=PATH <verb> [key=value ...]\n%s",
                 flags.Help("silod_client").c_str());
    return 2;
  }
  ServeRequest request;
  request.verb = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::size_t eq = args[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bad argument '%s' (want key=value)\n", args[i].c_str());
      return 2;
    }
    request.args[args[i].substr(0, eq)] = args[i].substr(eq + 1);
  }
  int exit_code = 0;
  Result<ServeResponse> response = client.Call(request, &exit_code);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return exit_code;
  }
  return PrintResponse(*response, flags.GetBool("json"));
}
