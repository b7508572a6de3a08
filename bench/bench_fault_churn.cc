// Fault-churn harness: how gracefully does each cache system degrade when the
// cluster misbehaves?
//
// Sweeps a seeded churn plan (cache-server crashes + job-worker crashes, §6)
// over increasing crash rates and reports makespan / avg JCT per (system,
// mode, rate) cell on the flow engine.  Two failure shapes are compared at
// equal aggregate server-crash event rates:
//   - independent: every crash is its own Poisson draw with a uniform target;
//   - correlated:  crashes arrive on a per-zone stream and take a whole
//     4-server zone down at one timestamp (recoveries staggered), i.e. the
//     same number of server-crash events bunched into rack-sized bursts.
// The paper's fault-tolerance claim is that failures cost performance, never
// correctness — so every cell also asserts that all jobs complete.  SiloD's
// cache-aware allocation should degrade no worse than CoorDL's static split,
// because lost cache is re-allocated on the next control-loop tick instead of
// staying pinned to a dead server's share.
//
// A second sweep pits zone-aware placement against zone-oblivious placement
// under the *same* correlated churn plan (identical crash schedule, equal
// cache totals).  Zone-aware runs declare the rack as a failure domain with a
// 0.25 loss bound, so the storage policy keeps at most a quarter of each
// dataset's quota inside the rack; a rack crash then costs the bounded share
// instead of the rack's capacity-proportional half.  The sweep runs with
// quotas below pool capacity (cache not fully scarce) — the regime where the
// bound genuinely moves bytes at zero total-cache cost — and asserts the
// zone-aware run loses strictly fewer cached bytes with no-worse avg JCT.
//
//   bench_fault_churn [--smoke] [--out=PATH]
//
// Writes the sweep to --out (default BENCH_fault_churn.json; RunReport
// schema, sim/metrics.h).  --smoke shrinks the sweep for CI (<30 s).  An
// unknown flag or a stray argument exits 2.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/common/topology.h"
#include "src/fault/fault_plan.h"

using namespace silod;
using namespace silod::bench;

namespace {

constexpr int kZoneSize = 4;
constexpr double kZoneLossBound = 0.25;

Trace ChurnTrace(int num_jobs, std::uint64_t seed) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(45);
  options.max_duration = Hours(4);
  options.seed = seed;
  return TraceGenerator(options).Generate();
}

// The shared churn schedule: worker crashes plus either independent server
// crashes or whole-zone bursts at the same aggregate event rate.
FaultPlan ChurnPlan(const std::string& mode, double rate, int num_servers, int num_jobs) {
  FaultChurnOptions churn;
  churn.horizon = Hours(48);
  churn.worker_crashes_per_hour = rate;
  if (mode == "independent") {
    churn.server_crashes_per_hour = rate;
  } else if (rate > 0) {
    // Equal aggregate event rate: each zone crash emits kZoneSize
    // server-crash events, so the zone draws at rate / kZoneSize.
    ZoneChurn zone;
    zone.zone = FaultZone{"rack0", 0, kZoneSize - 1};
    zone.crashes_per_hour = rate / kZoneSize;
    zone.recovery_stagger = 60;
    churn.zones.push_back(zone);
  }
  churn.num_servers = num_servers;
  churn.num_jobs = num_jobs;
  churn.seed = 29;  // Same plan for every system: an apples-to-apples sweep.
  return GenerateFaultPlan(churn);
}

bool AllCompleted(const SimResult& result, int num_jobs) {
  bool completed = static_cast<int>(result.jobs.size()) == num_jobs;
  for (const JobResult& j : result.jobs) {
    completed = completed && j.finish_time > 0;
  }
  return completed;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("smoke", "false", "shrink the sweep for CI");
  flags.Define("out", "BENCH_fault_churn.json", "report path");
  Status status = flags.Parse(argc, argv);
  if (status.ok() && !flags.positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" + flags.positional()[0] + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), flags.Help(argv[0]).c_str());
    return 2;
  }
  const bool smoke = flags.GetBool("smoke");
  const std::string out_path = flags.GetString("out");

  const int num_jobs = smoke ? 16 : 40;
  const std::vector<double> rates = smoke ? std::vector<double>{0, 4}
                                          : std::vector<double>{0, 1, 2, 4};
  const std::vector<CacheSystem> systems = {CacheSystem::kSiloD, CacheSystem::kCoorDl};
  const std::vector<std::string> modes = {"independent", "correlated"};
  const Trace trace = ChurnTrace(num_jobs, /*seed=*/11);

  std::vector<RunReport> runs;
  Table table({"label", "crashes/hr", "makespan (min)", "avg JCT (min)", "p95 JCT (min)",
               "p99 JCT (min)", "srv crashes", "blocks lost", "bytes lost (MB)", "completed"});
  // Records one run: a table row and a report.
  const auto add_run = [&](RunReport r, double rate) {
    table.AddRow({r.label, FormatShortest(rate), Fmt(r.makespan_min), Fmt(r.jct.avg_jct_min),
                  Fmt(r.jct.p95_jct_min), Fmt(r.jct.p99_jct_min),
                  std::to_string(r.faults.server_crashes), std::to_string(r.faults.blocks_lost),
                  Fmt(r.faults.bytes_lost / 1e6), r.unfinished_jobs == 0 ? "yes" : "NO"});
    runs.push_back(std::move(r));
  };
  bool ok = true;

  // --- Sweep 1: cache system x failure shape x crash rate -------------------
  for (const CacheSystem system : systems) {
    for (const std::string& mode : modes) {
      for (const double rate : rates) {
        if (mode == "correlated" && rate == 0) {
          continue;  // Identical to the independent zero-rate baseline.
        }
        SimConfig sim = MicroClusterConfig();
        sim.reschedule_period = Minutes(5);
        // Scarce cache relative to the working set: the regime where losing
        // cached blocks (and re-allocating after the loss) actually matters.
        sim.resources.total_cache = GB(150);
        // Enough servers for a rack-sized failure domain.
        sim.resources.num_servers = 2 * kZoneSize;
        sim.faults = ChurnPlan(mode, rate, sim.resources.num_servers, num_jobs);

        const SimResult result =
            Run(trace, SchedulerKind::kFifo, system, sim, EngineKind::kFlow);

        RunReport report = MakeRunReport(
            std::string(CacheSystemName(system)) + "/" + mode, "flow", result);
        report.AddExtra("system", std::string(CacheSystemName(system)));
        report.AddExtra("mode", mode);
        report.AddExtra("crashes_per_hour", rate);
        report.AddExtra("placement", std::string("oblivious"));
        const bool completed = AllCompleted(result, num_jobs);
        report.AddExtra("all_completed", completed);
        ok = ok && completed && report.makespan_min > 0;
        add_run(std::move(report), rate);
      }
    }
  }

  // --- Sweep 2: zone-aware vs zone-oblivious placement ----------------------
  // Same correlated churn plan and equal cache totals; only the placement
  // differs.  Cache is sized so dataset quotas fit under the pool: the loss
  // bound can then move bytes out of the rack without shrinking any quota.
  struct PlacementPair {
    double rate = 0;
    double oblivious_bytes = 0;
    double aware_bytes = 0;
    double oblivious_jct = 0;
    double aware_jct = 0;
  };
  std::vector<PlacementPair> pairs;
  const std::vector<double> zone_rates = smoke ? std::vector<double>{4}
                                               : std::vector<double>{2, 4};
  for (const double rate : zone_rates) {
    PlacementPair pair;
    pair.rate = rate;
    for (const bool zone_aware : {false, true}) {
      SimConfig sim = MicroClusterConfig();
      sim.reschedule_period = Minutes(5);
      sim.resources.total_cache = GB(600);  // Quotas fit: loss bound binds.
      sim.resources.num_servers = 2 * kZoneSize;
      sim.faults = ChurnPlan("correlated", rate, sim.resources.num_servers, num_jobs);
      if (zone_aware) {
        Result<ClusterTopology> topology =
            ClusterTopology::FromZones({FaultZone{"rack0", 0, kZoneSize - 1}}, kZoneLossBound);
        SILOD_CHECK(topology.ok()) << topology.status().ToString();
        sim.topology = *topology;
      }

      const SimResult result =
          Run(trace, SchedulerKind::kFifo, CacheSystem::kSiloD, sim, EngineKind::kFlow);

      const std::string placement = zone_aware ? "zone-aware" : "oblivious";
      RunReport report = MakeRunReport("SiloD/placement-" + placement, "flow", result);
      report.AddExtra("system", std::string(CacheSystemName(CacheSystem::kSiloD)));
      report.AddExtra("mode", std::string("correlated"));
      report.AddExtra("crashes_per_hour", rate);
      report.AddExtra("placement", placement);
      const bool completed = AllCompleted(result, num_jobs);
      report.AddExtra("all_completed", completed);
      ok = ok && completed && report.makespan_min > 0;
      if (zone_aware) {
        pair.aware_bytes = result.faults.bytes_lost;
        pair.aware_jct = result.AvgJctMinutes();
      } else {
        pair.oblivious_bytes = result.faults.bytes_lost;
        pair.oblivious_jct = result.AvgJctMinutes();
      }
      add_run(std::move(report), rate);
    }
    pairs.push_back(pair);
  }

  table.Print();

  // The tentpole claim: at equal cache totals and equal crash schedules,
  // zone-aware placement loses strictly fewer cached bytes and is no worse
  // on avg JCT.
  for (const PlacementPair& pair : pairs) {
    std::printf("placement @%.1f crashes/hr: oblivious lost %.1f MB (JCT %.1f min), "
                "zone-aware lost %.1f MB (JCT %.1f min)\n",
                pair.rate, pair.oblivious_bytes / 1e6, pair.oblivious_jct,
                pair.aware_bytes / 1e6, pair.aware_jct);
    if (!(pair.aware_bytes < pair.oblivious_bytes)) {
      std::fprintf(stderr, "FAIL: zone-aware placement did not lose strictly fewer bytes\n");
      ok = false;
    }
    if (pair.aware_jct > pair.oblivious_jct * 1.001) {
      std::fprintf(stderr, "FAIL: zone-aware placement worsened avg JCT\n");
      ok = false;
    }
  }

  JsonValue header = JsonValue::Object();
  header.Set("smoke", JsonValue::Bool(smoke));
  std::ofstream(out_path) << ReportsToJson("fault_churn", header, runs);
  std::printf("wrote %s\n", out_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "FAIL: a churn cell lost a job, degenerated, or zone-aware placement "
                         "failed to beat oblivious\n");
    return 1;
  }
  return 0;
}
