// silodd request cost against job history: a trace's submit/complete
// history replayed in-process through ServiceState::Handle, no socket, with
// the read mix of perfbench's serve-replay-sjf (a `query` of a seeded-random
// submitted key after each submit, a `stats` every 32 writes).
//
// The trace runs on a 64-GPU cluster at a load where the live set (active
// plus queued jobs) stays about the same size however long the history
// grows, so a request whose cost follows history instead of live state
// shows as growth from the smallest to the largest row.  Each row
// (<policy>/<jobs>) replays its history into fresh services until `stats`
// has at least 1000 samples, and reports req/s and the p50/p99 latency of
// each verb and of all writes over the pooled samples, the mean and peak
// live-set size seen by the `stats` calls, the request count per replay
// and the number of replays.  Every replay also checks that the service's
// JCT report matches the batch flow engine's bit-for-bit.
//
//   bench_serve_replay [--out=PATH] [--baseline=PATH]
//
// The rows are fixed: 1k and 16k jobs under each of sjf+silod and
// gavel+silod.  With --baseline, the run fails (exit 1, a "FAIL:" line per
// failure) when, for a policy, the `stats` p99 or the write p50 at 16k jobs
// is more than kMaxGrowth (2) times its value at 1k.  Both are timed in the same run, so the ratio does not depend on the host's
// speed.  It also fails on a baseline that does not parse or is not a
// "serve_replay" report, on a row the baseline lacks, and on a row whose
// request count differs from the baseline's (the workload changed, so the
// committed timings no longer describe it).  A failed request or a JCT
// report that differs from the batch engine's fails the run with or without
// a baseline.
//
// The trace recipe (ServeTrace, seed 7) is frozen so committed rows stay
// comparable.  Writes BENCH_serve.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policy_registry.h"
#include "src/serve/service.h"
#include "src/sim/flow_engine.h"
#include "src/sim/serve_replay.h"

using namespace silod;
using namespace silod::bench;

namespace {

// One `stats` read after every this many writes.
constexpr std::uint64_t kStatsEvery = 32;
// A row replays its history until `stats` has this many samples, so its p99
// has ten beyond it (one replay at 16k jobs, 17 at 1k).
constexpr std::size_t kMinStatsSamples = 1000;
// The policies replayed: the SJF admission path and the Gavel solve.
constexpr const char* kPolicies[] = {"sjf+silod", "gavel+silod"};
// The trace sizes in jobs: the growth ratios are the second over the first.
constexpr int kSizes[] = {1000, 16000};
// The largest row's stats p99 and write p50 over the smallest row's may be
// at most this.
constexpr double kMaxGrowth = 2.0;
// The verbs timed on their own, then all writes together.
constexpr const char* kVerbs[] = {"submit", "complete", "query", "stats", "write"};

// 64 GPUs with cache and egress scaled 8x from the 8-GPU micro cluster.
SimConfig ServeCluster() {
  SimConfig config;
  config.resources.total_gpus = 64;
  config.resources.total_cache = TB(16);
  config.resources.remote_io = Gbps(12.8);
  config.resources.num_servers = 16;
  return config;
}

// Jobs arrive every 6 minutes on average and run about 30 minutes: the
// cluster keeps up, so the live set does not grow with the trace (at 1k and
// 16k jobs its mean is 16 and 18 jobs and its peak 24 and 34, under either
// policy).  At 4 minutes Gavel builds a queue of up to 104 jobs in the 16k
// trace, and the `stats` p99 follows that peak rather than history.
Trace ServeTrace(int num_jobs) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.mean_interarrival = Minutes(6);
  options.median_duration = Minutes(30);
  options.seed = 7;
  return TraceGenerator(options).Generate();
}

struct Latency {
  double p50_us = 0;
  double p99_us = 0;
};

struct Row {
  std::string name;  // "<policy>/<jobs>".
  std::string policy;
  int jobs = 0;
  std::uint64_t requests = 0;
  // Active + queued jobs seen by the stats calls: their mean and maximum.
  double live_mean = 0;
  std::size_t live_max = 0;
  int replays = 0;
  std::size_t stats_samples = 0;
  double req_per_s = 0;
  std::map<std::string, Latency> verbs;  // By kVerbs entry.
};

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t at =
      std::min(samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[at];
}

using Clock = std::chrono::steady_clock;

// The replayed requests: the schedule's writes in order, each submit
// followed by a query of a submitted key, a stats after every kStatsEvery
// writes.
std::vector<ServeRequest> BuildRequests(const Trace& trace, const SimResult& result) {
  std::vector<ServeRequest> requests;
  Rng rng(7);
  std::vector<std::size_t> submitted;
  std::uint64_t writes = 0;
  for (const ReplayEvent& event : BuildReplaySchedule(trace, result)) {
    requests.push_back(event.complete ? CompleteRequestFor(trace, event.job, event.t)
                                      : SubmitRequestFor(trace, event.job, event.t));
    if (!event.complete) {
      submitted.push_back(event.job);
      ServeRequest query;
      query.verb = "query";
      query.args["key"] = "job" + std::to_string(submitted[rng.NextBelow(submitted.size())]);
      requests.push_back(std::move(query));
    }
    if (++writes % kStatsEvery == 0) {
      ServeRequest stats;
      stats.verb = "stats";
      requests.push_back(std::move(stats));
    }
  }
  return requests;
}

// Replays the row's history into fresh services until the `stats` calls
// number at least kMinStatsSamples, pooling every verb's samples; an error
// names the first failed request or a report that differs from the batch
// engine's.
Result<Row> ReplayRow(const std::string& policy, int jobs) {
  Row row;
  row.name = policy + "/" + std::to_string(jobs);
  row.policy = policy;
  row.jobs = jobs;
  const Trace trace = ServeTrace(jobs);
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  FlowEngine engine(&trace, *scheduler, ServeCluster());
  const SimResult result = engine.Run();
  const RunReport batch = MakeRunReport(policy, "flow", result);
  const std::vector<ServeRequest> requests = BuildRequests(trace, result);
  row.requests = requests.size();

  ServiceConfig config;
  config.policy = policy;
  config.resources = ServeCluster().resources;
  config.admission.max_gpu_load = 1e18;  // The batch engine has no gate.
  std::map<std::string, std::vector<double>> samples;
  double live_sum = 0;
  double wall_s = 0;
  while (samples["stats"].size() < kMinStatsSamples) {
    Result<std::unique_ptr<ServiceState>> service = ServiceState::Create(config);
    if (!service.ok()) {
      return service.status();
    }
    const auto start = Clock::now();
    for (const ServeRequest& request : requests) {
      const auto sent = Clock::now();
      const ServeResponse response = (*service)->Handle(request);
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - sent).count();
      if (!response.ok()) {
        return Status::Internal(row.name + ": " + request.verb + " failed: " + response.error);
      }
      samples[request.verb].push_back(us);
      if (IsMutatingVerb(request.verb)) {
        samples["write"].push_back(us);
      } else if (request.verb == "stats") {
        const std::size_t live =
            (*service)->jobs().active().size() + (*service)->jobs().queued().size();
        live_sum += static_cast<double>(live);
        row.live_max = std::max(row.live_max, live);
      }
    }
    wall_s += std::chrono::duration<double>(Clock::now() - start).count();
    ++row.replays;
    if (!JctSummariesIdentical(batch, (*service)->Report())) {
      return Status::Internal(row.name + ": the service's JCT report differs from the batch "
                              "engine's");
    }
  }
  row.stats_samples = samples["stats"].size();
  row.live_mean = live_sum / static_cast<double>(row.stats_samples);
  row.req_per_s = static_cast<double>(row.replays * requests.size()) / wall_s;
  for (const char* verb : kVerbs) {
    row.verbs[verb] = {Percentile(samples[verb], 0.5), Percentile(samples[verb], 0.99)};
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("out", "BENCH_serve.json", "report path");
  flags.Define("baseline", "", "committed report to gate against (growth ratios, request counts)");
  Status status = flags.Parse(argc, argv);
  if (status.ok() && !flags.positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" + flags.positional()[0] + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), flags.Help(argv[0]).c_str());
    return 2;
  }

  std::optional<Baseline> baseline;
  if (const std::string path = flags.GetString("baseline"); !path.empty()) {
    Result<Baseline> loaded = Baseline::Load(path, "serve_replay", "rows", "row");
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", loaded.status().message().c_str());
      return 1;
    }
    baseline = *std::move(loaded);
  }

  Table table({"row", "requests", "replays", "live mean/max", "req/s", "write p50/p99 us",
               "query p50/p99 us", "stats p50/p99 us"});
  std::vector<Row> rows;
  bool failed = false;
  for (const std::string policy : kPolicies) {
    for (const int n : kSizes) {
      Result<Row> row = ReplayRow(policy, n);
      if (!row.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", row.status().message().c_str());
        return 1;
      }
      const auto pair = [&](const char* verb) {
        return Fmt(row->verbs[verb].p50_us) + " / " + Fmt(row->verbs[verb].p99_us);
      };
      table.AddRow({row->name, std::to_string(row->requests), std::to_string(row->replays),
                    Fmt(row->live_mean) + " / " + std::to_string(row->live_max),
                    Fmt(row->req_per_s, 0), pair("write"), pair("query"), pair("stats")});
      if (baseline) {
        const Result<const JsonValue*> found =
            baseline->Row(row->name, {{"requests", JsonValue::Kind::kNumber}});
        if (!found.ok()) {
          std::fprintf(stderr, "FAIL: %s\n", found.status().message().c_str());
          failed = true;
        } else if ((*found)->Find("requests")->text() != std::to_string(row->requests)) {
          std::fprintf(stderr, "FAIL: %s replayed %llu requests, baseline %s\n",
                       row->name.c_str(), static_cast<unsigned long long>(row->requests),
                       (*found)->Find("requests")->text().c_str());
          failed = true;
        }
      }
      rows.push_back(*std::move(row));
    }
  }
  table.Print();

  // Growth within this run: each policy's largest row over its smallest.
  const int smallest = kSizes[0];
  const int largest = kSizes[1];
  JsonValue growth = JsonValue::Array();
  for (const std::string policy : kPolicies) {
    const auto find = [&](int jobs) {
      return std::find_if(rows.begin(), rows.end(),
                          [&](const Row& r) { return r.policy == policy && r.jobs == jobs; });
    };
    Row& small = *find(smallest);
    Row& large = *find(largest);
    const double stats_p99 = large.verbs["stats"].p99_us / small.verbs["stats"].p99_us;
    const double write_p50 = large.verbs["write"].p50_us / small.verbs["write"].p50_us;
    std::printf("%s growth %d -> %d jobs: stats p99 x%.2f, write p50 x%.2f (bound x%.2f)\n",
                policy.c_str(), smallest, largest, stats_p99, write_p50, kMaxGrowth);
    JsonValue entry = JsonValue::Object(/*one_line=*/true);
    entry.Set("policy", JsonValue::String(policy))
        .Set("stats_p99_growth", JsonValue::Number(stats_p99))
        .Set("write_p50_growth", JsonValue::Number(write_p50));
    growth.Push(std::move(entry));
    if (!baseline) {
      continue;
    }
    for (const auto& [what, ratio] : {std::pair{"stats p99", stats_p99},
                                      std::pair{"write p50", write_p50}}) {
      if (!(ratio <= kMaxGrowth)) {
        std::fprintf(stderr, "FAIL: %s %s grew x%.2f from %d to %d jobs (bound x%.2f)\n",
                     policy.c_str(), what, ratio, smallest, largest, kMaxGrowth);
        failed = true;
      }
    }
  }

  JsonValue out_rows = JsonValue::Array();
  for (const Row& r : rows) {
    JsonValue row = JsonValue::Object(/*one_line=*/true);
    row.Set("row", JsonValue::String(r.name))
        .Set("requests", JsonValue::Int(static_cast<std::int64_t>(r.requests)))
        .Set("live_mean", JsonValue::Number(r.live_mean))
        .Set("live_max", JsonValue::Int(static_cast<std::int64_t>(r.live_max)))
        .Set("replays", JsonValue::Int(r.replays))
        .Set("stats_samples", JsonValue::Int(static_cast<std::int64_t>(r.stats_samples)))
        .Set("req_per_s", JsonValue::Number(r.req_per_s));
    for (const char* verb : kVerbs) {
      const Latency& l = r.verbs.at(verb);
      row.Set(std::string(verb) + "_p50_us", JsonValue::Number(l.p50_us))
          .Set(std::string(verb) + "_p99_us", JsonValue::Number(l.p99_us));
    }
    out_rows.Push(std::move(row));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("benchmark", JsonValue::String("serve_replay"))
      .Set("rows", std::move(out_rows))
      .Set("growth", std::move(growth));
  const std::string out_path = flags.GetString("out");
  std::ofstream(out_path) << doc.Format() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
