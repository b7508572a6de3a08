// Scheduler-solve latency: one `Schedule` call per registry policy on seeded
// snapshots of 64 to 4096 active jobs.  This is the layer both engines and
// silodd share, so it is timed on its own, away from any engine.
//
// Each cell records the latency p50/p99 over repeated solves of one frozen
// snapshot (the best of three rounds), plus the PlanDigest of the plan (the
// first solve of a freshly built scheduler, so stateful storage policies
// digest deterministically).
//
//   bench_sched_solve [--out=PATH] [--sizes=N,N,...] [--policies=A,B,...]
//                     [--baseline=PATH] [--max-regress=F]
//
// With --baseline, the run fails (exit 1) when any cell's digest differs from
// the committed one, or when a cell's p50 is more than --max-regress (default
// 0.3) slower than the committed p50 in each of up to three attempts.
// Digests are exact; only cells present in both files are compared.
//
// The snapshot recipe (SolveSnapshot, seed 17) is frozen so committed
// baselines stay comparable across refactors.  Writes BENCH_sched_solve.json.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/topology.h"
#include "src/core/policy_registry.h"
#include "src/workload/trace_gen.h"

using namespace silod;

namespace {

// A mid-trace cluster state at `n` active jobs: roughly half the jobs hold
// GPUs (with partly filled caches), the rest wait; 30% of jobs share a
// canonical dataset; cache, egress and GPUs scale with n from the §7.2
// 400-GPU cluster; a finite per-job remote-IO cap and four cache racks make
// every co-designed policy take its full path.
struct SolveSnapshot {
  Trace trace;
  ClusterTopology topology;
  Snapshot snapshot;
};

std::unique_ptr<SolveSnapshot> MakeSolveSnapshot(int n) {
  auto s = std::make_unique<SolveSnapshot>();
  TraceOptions options;
  options.num_jobs = n;
  options.mean_interarrival = Minutes(1);
  options.share_fraction = 0.3;
  options.seed = 17;
  s->trace = TraceGenerator(options).Generate();

  const int servers = std::max(4, n / 4);
  std::string spec;
  for (int r = 0; r < 4; ++r) {
    spec += (r ? ";rack" : "rack") + std::to_string(r) + "=" + std::to_string(r * servers / 4) +
            "-" + std::to_string((r + 1) * servers / 4 - 1);
  }
  Result<ClusterTopology> topology = ClusterTopology::Parse(spec);
  if (!topology.ok()) {
    std::fprintf(stderr, "bad topology %s: %s\n", spec.c_str(),
                 topology.status().ToString().c_str());
    std::exit(2);
  }
  s->topology = *std::move(topology);

  Snapshot& snap = s->snapshot;
  snap.now = s->trace.jobs.back().submit_time;
  snap.catalog = &s->trace.catalog;
  snap.topology = &s->topology;
  snap.resources.total_gpus = std::max(8, s->trace.TotalGpuDemand() * 3 / 4);
  snap.resources.total_cache = GB(75) * n;
  snap.resources.remote_io = Gbps(0.08) * n;
  snap.resources.per_job_remote_cap = MBps(60);
  snap.resources.num_servers = servers;

  Rng rng(17);
  int held = 0;
  for (const JobSpec& job : s->trace.jobs) {
    JobView view;
    view.spec = &job;
    view.remaining_bytes =
        static_cast<Bytes>((0.1 + 0.9 * rng.NextDouble()) * static_cast<double>(job.total_bytes));
    if (held + job.num_gpus <= snap.resources.total_gpus / 2) {
      held += job.num_gpus;
      view.running = true;
      view.effective_cache = static_cast<Bytes>(
          rng.NextDouble() * static_cast<double>(s->trace.catalog.Get(job.dataset).size));
    }
    snap.jobs.push_back(view);
  }
  return s;
}

struct Cell {
  std::string name;  // "<policy>/<jobs>".
  int reps = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t digest = 0;
};

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t at =
      std::min(samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[at];
}

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// Three rounds of timed solves after one untimed warm-up solve (the digest);
// the cell keeps the round with the lowest p50, the least-perturbed one.
Cell TimeCell(const std::string& policy, int n, const Snapshot& snapshot) {
  Cell cell;
  cell.name = policy + "/" + std::to_string(n);
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "%s\n", scheduler.status().ToString().c_str());
    std::exit(2);
  }
  auto start = Clock::now();
  cell.digest = PlanDigest((*scheduler)->Schedule(snapshot));
  const double first_us = MicrosSince(start);
  // About 50 ms of solves per round, between 5 and 300 samples.
  cell.reps = std::clamp(static_cast<int>(50000.0 / std::max(1.0, first_us)), 5, 300);
  for (int round = 0; round < 3; ++round) {
    std::vector<double> samples;
    for (int r = 0; r < cell.reps; ++r) {
      start = Clock::now();
      const AllocationPlan plan = (*scheduler)->Schedule(snapshot);
      samples.push_back(MicrosSince(start));
    }
    const double p50 = Percentile(samples, 0.5);
    if (round == 0 || p50 < cell.p50_us) {
      cell.p50_us = p50;
      cell.p99_us = Percentile(samples, 0.99);
    }
  }
  return cell;
}

std::string FormatDigest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

// Each cell is written on its own line: `{"cell": "<name>", ...}`.  Returns
// that line of a committed file, or "" when the cell is absent.
std::string BaselineLine(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("{\"cell\": \"" + name + "\"");
  if (at == std::string::npos) {
    return "";
  }
  return json.substr(at, json.find('\n', at) - at);
}

std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  std::size_t begin = at + needle.size();
  std::size_t end = line.find_first_of(",}", begin);
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  }
  return line.substr(begin, end - begin);
}

std::vector<std::string> SplitCsv(const std::string& spec) {
  std::vector<std::string> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sched_solve.json";
  std::string baseline_path;
  std::string sizes_spec = "64,256,1024,4096";
  std::string policies_spec;
  double max_regress = 0.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) { return arg.substr(std::string(prefix).size()); };
    if (arg.rfind("--out=", 0) == 0) {
      out_path = value("--out=");
    } else if (arg.rfind("--sizes=", 0) == 0) {
      sizes_spec = value("--sizes=");
    } else if (arg.rfind("--policies=", 0) == 0) {
      policies_spec = value("--policies=");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      max_regress = std::atof(value("--max-regress=").c_str());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=PATH] [--sizes=N,N,...] [--policies=A,B,...] "
                   "[--baseline=PATH] [--max-regress=F]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<std::string> policies = SplitCsv(policies_spec);
  if (policies.empty()) {
    for (const PolicyInfo& info : PolicyRegistry::Global().List()) {
      policies.push_back(info.name);
    }
  }

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    baseline_json = buf.str();
  }

  Table table({"policy", "jobs", "reps", "p50 us", "p99 us", "digest"});
  std::vector<Cell> cells;
  bool failed = false;
  for (const std::string& size : SplitCsv(sizes_spec)) {
    const int n = std::atoi(size.c_str());
    const std::unique_ptr<SolveSnapshot> snapshot = MakeSolveSnapshot(n);
    for (const std::string& policy : policies) {
      Cell cell = TimeCell(policy, n, snapshot->snapshot);
      const std::string line = BaselineLine(baseline_json, cell.name);
      const double base = line.empty() ? 0 : std::atof(Field(line, "p50_us").c_str());
      // A slow cell is timed again, up to twice, before it counts as a
      // regression: on a shared host other tenants slow single cells by
      // 50% or more.  The best attempt is kept.
      for (int retry = 0; retry < 2 && base > 0 && cell.p50_us > (1.0 + max_regress) * base;
           ++retry) {
        const Cell again = TimeCell(policy, n, snapshot->snapshot);
        if (again.p50_us < cell.p50_us) {
          cell = again;
        }
      }
      table.AddRow({policy, std::to_string(n), std::to_string(cell.reps), Fmt(cell.p50_us),
                    Fmt(cell.p99_us), FormatDigest(cell.digest)});
      cells.push_back(cell);
      if (line.empty()) {
        continue;
      }
      if (Field(line, "digest") != FormatDigest(cell.digest)) {
        std::fprintf(stderr, "FAIL: %s plan digest %s, baseline %s\n", cell.name.c_str(),
                     FormatDigest(cell.digest).c_str(), Field(line, "digest").c_str());
        failed = true;
      }
      if (base > 0 && cell.p50_us > (1.0 + max_regress) * base) {
        std::fprintf(stderr, "FAIL: %s p50 regressed: %.1f us vs baseline %.1f us (+%.0f%%)\n",
                     cell.name.c_str(), cell.p50_us, base, 100.0 * (cell.p50_us / base - 1.0));
        failed = true;
      }
    }
  }
  table.Print();

  std::ofstream out(out_path);
  out << "{\n  \"benchmark\": \"sched_solve\",\n  \"sizes\": \"" << sizes_spec
      << "\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"cell\": \"%s\", \"reps\": %d, \"p50_us\": %.2f, \"p99_us\": %.2f, "
                  "\"digest\": \"%s\"}%s\n",
                  c.name.c_str(), c.reps, c.p50_us, c.p99_us, FormatDigest(c.digest).c_str(),
                  i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
