// silod_sim: command-line cluster simulator.
//
//   silod_sim --gpus=96 --cache-tb=7.2 --egress-gbps=8 --scheduler=gavel
//             --cache-system=silod --jobs=300
//
// Runs one (scheduler, cache system) configuration over a generated or
// imported trace and prints the paper's metrics; optionally dumps the trace
// and the per-job results as CSV for external analysis.
#include <cstdio>
#include <fstream>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/common/topology.h"
#include "src/core/policy_registry.h"
#include "src/core/silod_scheduler.h"
#include "src/core/system.h"
#include "src/fault/fault_plan.h"
#include "src/rt/rt_cluster.h"
#include "src/rt/worker_main.h"
#include "src/sim/cluster.h"
#include "src/workload/trace_io.h"

using namespace silod;

namespace {

Result<SchedulerKind> ParseScheduler(const std::string& name) {
  if (name == "fifo") {
    return SchedulerKind::kFifo;
  }
  if (name == "sjf") {
    return SchedulerKind::kSjf;
  }
  if (name == "gavel") {
    return SchedulerKind::kGavel;
  }
  return Status::InvalidArgument("unknown scheduler: " + name + " (fifo|sjf|gavel)");
}

Result<CacheSystem> ParseCacheSystem(const std::string& name) {
  if (name == "silod") {
    return CacheSystem::kSiloD;
  }
  if (name == "alluxio") {
    return CacheSystem::kAlluxio;
  }
  if (name == "coordl") {
    return CacheSystem::kCoorDl;
  }
  if (name == "quiver") {
    return CacheSystem::kQuiver;
  }
  return Status::InvalidArgument("unknown cache system: " + name +
                                 " (silod|alluxio|coordl|quiver)");
}

// Merges the fault plan's declared zones into one list, rejecting two
// declarations of the same name with different server ranges.
Status MergeFaultZones(const std::vector<TopologyZone>& incoming,
                       std::vector<TopologyZone>* zones) {
  for (const TopologyZone& zone : incoming) {
    bool duplicate = false;
    for (const TopologyZone& existing : *zones) {
      if (existing.name == zone.name) {
        if (!(existing == zone)) {
          return Status::InvalidArgument("zone '" + zone.name +
                                         "' declared twice with different server ranges");
        }
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      zones->push_back(zone);
    }
  }
  return Status::Ok();
}

// The fault rows of the summary table, shared by the simulated and rt runs.
void AddFaultRows(const FaultStats& f, const RestartCost& restart_cost, Table* summary) {
  summary->AddRow({"faults (srv crash/recover, wrk crash/restart)",
                   std::to_string(f.server_crashes) + "/" + std::to_string(f.server_recoveries) +
                       ", " + std::to_string(f.worker_crashes) + "/" +
                       std::to_string(f.worker_restarts)});
  summary->AddRow({"faults (degrade windows, dm restarts, ignored)",
                   std::to_string(f.degrade_windows) + ", " + std::to_string(f.dm_restarts) +
                       ", " + std::to_string(f.ignored_events)});
  summary->AddRow({"blocks lost to server crashes", std::to_string(f.blocks_lost)});
  if (!f.blocks_lost_by_zone.empty()) {
    std::string by_zone;
    for (const auto& [zone, blocks] : f.blocks_lost_by_zone) {
      by_zone += (by_zone.empty() ? "" : ", ") + zone + "=" + std::to_string(blocks);
    }
    summary->AddRow({"blocks lost by zone", by_zone});
    summary->AddRow({"cache bytes lost (MB)", Fmt(f.bytes_lost / 1e6)});
  }
  if (restart_cost.policy != RestartCostPolicy::kCheckpointEverything) {
    summary->AddRow({"restart cost (" + restart_cost.ToSpec() + "): re-reads blk/MB, compute s",
                     std::to_string(f.blocks_refetched) + "/" + Fmt(f.bytes_refetched / 1e6) +
                         ", " + Fmt(f.compute_lost)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Re-exec'd copies of this binary become worker processes (rt engine with
  // --workers-processes); everything below is the parent only.
  if (const int worker_rc = MaybeRunWorkerMain(argc, argv); worker_rc >= 0) {
    return worker_rc;
  }
  FlagSet flags;
  flags.Define("gpus", "96", "cluster GPU count");
  flags.Define("cache-tb", "7.2", "cluster cache pool (TB)");
  flags.Define("egress-gbps", "8", "remote storage egress limit (Gbps)");
  flags.Define("per-job-cap-mbps", "0", "per-job provider cap in MB/s (0 = none)");
  flags.Define("servers", "24", "number of cache servers");
  flags.Define("scheduler", "fifo", "fifo | sjf | gavel");
  flags.Define("cache-system", "silod", "silod | alluxio | coordl | quiver");
  flags.Define("policy", "",
               "registry policy name, e.g. \"sjf+silod\" or \"gavel+coordl\" "
               "(overrides --scheduler/--cache-system)");
  flags.Define("engine", "flow", "flow | fine | rt (rt runs a scaled-down wall-clock cluster)");
  flags.Define("fine-linear-scan", "false",
               "fine engine: step by O(jobs) scans instead of the event calendar");
  flags.Define("manage-remote-io", "true", "SiloD throttles remote IO (ablation: false)");
  flags.Define("jobs", "300", "jobs to generate (ignored with --trace)");
  flags.Define("interarrival-min", "4", "mean job inter-arrival (minutes)");
  flags.Define("median-duration-min", "180", "median ideal job duration (minutes)");
  flags.Define("max-duration-days", "2", "duration cap (days)");
  flags.Define("share", "0", "fraction of jobs sharing canonical datasets");
  flags.Define("gpu-speed", "1", "GPU speed scale (Fig. 14b)");
  flags.Define("seed", "3", "trace RNG seed");
  flags.Define("fault-plan", "",
               "explicit fault schedule, e.g. "
               "\"server-crash t=600 server=0 down=900; degrade t=1200 factor=0.25 for=600\" "
               "(zones: \"zone name=rack0 servers=0-3; zone-crash t=600 zone=rack0 down=900 "
               "stagger=30\"); composes with --fault-*-per-hour and --fault-zone: explicit "
               "plan events and generated churn are merged into one time-sorted schedule");
  flags.Define("fault-server-crashes-per-hour", "0",
               "generated churn: cache-server crash rate (merged time-sorted with --fault-plan)");
  flags.Define("fault-worker-crashes-per-hour", "0",
               "generated churn: job-worker crash rate (merged time-sorted with --fault-plan)");
  flags.Define("fault-degrade-windows-per-hour", "0",
               "generated churn: remote degrade rate (merged time-sorted with --fault-plan)");
  flags.Define("fault-dm-restarts-per-hour", "0",
               "generated churn: Data-Manager restart rate (merged time-sorted with "
               "--fault-plan)");
  flags.Define("fault-zone", "",
               "correlated churn zones, e.g. \"zone=rack0:servers=0-3:crashes-per-hour=0.5:"
               "down=900:stagger=30:degrade-factor=0.5:degrade-for=600\"; ';'-separated, each "
               "zone crashes as one unit on its own RNG stream (merged time-sorted with "
               "--fault-plan)");
  flags.Define("fault-horizon-hours", "24", "generated churn horizon (hours)");
  flags.Define("fault-seed", "1", "generated churn RNG seed");
  flags.Define("topology", "auto",
               "cache-server failure domains: \"auto\" derives them from the fault plan's "
               "declared zones, \"none\" runs zone-oblivious (errors if zones are declared), or "
               "an explicit spec \"rack0=0-3;rack1=4-7[;loss-bound=0.25]\" (must agree with any "
               "declared fault zones)");
  flags.Define("zone-loss-bound", "",
               "cap on the fraction of any dataset's cache a single zone failure may take, in "
               "(0,1]; overrides the topology's loss bound (default 0.5)");
  flags.Define("gpu-types", "",
               "heterogeneous fleet as comma-separated name:count[:speed] entries, e.g. "
               "\"v100:64:1,k80:32:0.45\"; counts must sum to --gpus (sugar for the topology's "
               "\"gpu-type name=.. count=.. speed=..\" entries; empty = uniform fleet)");
  flags.Define("restart-cost", "checkpoint-everything",
               "what a worker crash discards: checkpoint-everything | lose-partial-epoch | "
               "checkpoint-interval:N (N blocks)");
  flags.Define("workers-processes", "false",
               "rt engine: run each trainer as a real OS process supervised by the node "
               "manager instead of in-process threads");
  flags.Define("minidump-dir", "",
               "rt engine: write replayable crash minidumps (fault/minidump.h) here on "
               "worker crashes, unexpected exits and invariant violations");
  flags.Define("rt-jobs", "2", "rt engine: micro-trace job count (one GPU each)");
  flags.Define("rt-dataset-mb", "8", "rt engine: per-job dataset size (MB)");
  flags.Define("rt-block-kb", "250", "rt engine: dataset block size (KB)");
  flags.Define("rt-epochs", "3", "rt engine: epochs per job");
  flags.Define("rt-max-wall-seconds", "60", "rt engine: abort the run past this wall time");
  flags.Define("trace", "", "read the workload from this CSV instead of generating");
  flags.Define("dump-trace", "", "write the workload as CSV to this path");
  flags.Define("dump-jobs", "", "write per-job results as CSV to this path");
  flags.Define("series", "false", "print throughput/fairness time series");
  flags.Define("json", "", "write the run report (sim/metrics.h RunReport) to this path");
  flags.Define("help", "false", "show this help");

  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Help(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Help(argv[0]).c_str());
    return 0;
  }

  // Workload.
  Trace trace;
  if (!flags.GetString("trace").empty()) {
    Result<Trace> loaded = ReadTraceFile(flags.GetString("trace"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    trace = std::move(loaded).value();
  } else {
    if (flags.GetInt("jobs") < 1) {
      std::fprintf(stderr, "--jobs: %lld is not a positive job count\n",
                   static_cast<long long>(flags.GetInt("jobs")));
      return 2;
    }
    TraceOptions options;
    options.num_jobs = static_cast<int>(flags.GetInt("jobs"));
    options.mean_interarrival = Minutes(flags.GetDouble("interarrival-min"));
    options.median_duration = Minutes(flags.GetDouble("median-duration-min"));
    options.max_duration = Days(flags.GetDouble("max-duration-days"));
    options.share_fraction = flags.GetDouble("share");
    options.gpu_speed_scale = flags.GetDouble("gpu-speed");
    options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
    trace = TraceGenerator(options).Generate();
  }
  if (!flags.GetString("dump-trace").empty()) {
    if (const Status st = WriteTraceFile(trace, flags.GetString("dump-trace")); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Configuration.
  const Result<SchedulerKind> scheduler = ParseScheduler(flags.GetString("scheduler"));
  const Result<CacheSystem> cache = ParseCacheSystem(flags.GetString("cache-system"));
  if (!scheduler.ok() || !cache.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!scheduler.ok() ? scheduler.status() : cache.status()).ToString().c_str());
    return 2;
  }
  ExperimentConfig config;
  config.scheduler = *scheduler;
  config.cache = *cache;
  if (!flags.GetString("policy").empty()) {
    const std::string& name = flags.GetString("policy");
    if (!PolicyRegistry::Global().Contains(name)) {
      std::fprintf(stderr, "--policy: unknown policy \"%s\"; known: %s\n", name.c_str(),
                   PolicyRegistry::Global().KnownNames().c_str());
      return 2;
    }
    config.policy = name;
  }
  config.scheduler_options.manage_remote_io = flags.GetBool("manage-remote-io");
  config.sim.resources.total_gpus = static_cast<int>(flags.GetInt("gpus"));
  if (const Status st = SetStorageFromFlags(flags.GetDouble("cache-tb"),
                                            flags.GetDouble("egress-gbps"),
                                            flags.GetDouble("per-job-cap-mbps"), &config.sim.resources);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }
  config.sim.resources.num_servers = static_cast<int>(flags.GetInt("servers"));
  const std::string engine_name = flags.GetString("engine");
  if (engine_name != "flow" && engine_name != "fine" && engine_name != "rt") {
    std::fprintf(stderr, "--engine: unknown engine \"%s\"; valid engines: flow, fine, rt\n",
                 engine_name.c_str());
    return 2;
  }
  config.engine = engine_name == "fine" ? EngineKind::kFine : EngineKind::kFlow;
  config.fine.use_linear_scan = flags.GetBool("fine-linear-scan");

  // Faults: the explicit plan's events and the generated churn (independent
  // per-hour rates plus correlated zones) are merged into one schedule and
  // time-sorted; neither source takes precedence.
  std::vector<TopologyZone> fault_zones;  // Every zone the fault plan declares.
  if (!flags.GetString("fault-plan").empty()) {
    std::vector<TopologyZone> declared;
    Result<FaultPlan> parsed = FaultPlan::Parse(flags.GetString("fault-plan"), &declared);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--fault-plan: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    config.sim.faults = std::move(parsed).value();
    if (const Status st = MergeFaultZones(declared, &fault_zones); !st.ok()) {
      std::fprintf(stderr, "--fault-plan: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  std::vector<ZoneChurn> zones;
  if (!flags.GetString("fault-zone").empty()) {
    Result<std::vector<ZoneChurn>> parsed = ParseZoneChurnSpec(flags.GetString("fault-zone"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "--fault-zone: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    zones = std::move(parsed).value();
    std::vector<TopologyZone> declared;
    for (const ZoneChurn& churn : zones) {
      declared.push_back(churn.zone);
    }
    if (const Status st = MergeFaultZones(declared, &fault_zones); !st.ok()) {
      std::fprintf(stderr, "--fault-zone: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (!zones.empty() || flags.GetDouble("fault-server-crashes-per-hour") > 0 ||
      flags.GetDouble("fault-worker-crashes-per-hour") > 0 ||
      flags.GetDouble("fault-degrade-windows-per-hour") > 0 ||
      flags.GetDouble("fault-dm-restarts-per-hour") > 0) {
    FaultChurnOptions churn;
    churn.horizon = Hours(flags.GetDouble("fault-horizon-hours"));
    churn.server_crashes_per_hour = flags.GetDouble("fault-server-crashes-per-hour");
    churn.worker_crashes_per_hour = flags.GetDouble("fault-worker-crashes-per-hour");
    churn.degrade_windows_per_hour = flags.GetDouble("fault-degrade-windows-per-hour");
    churn.dm_restarts_per_hour = flags.GetDouble("fault-dm-restarts-per-hour");
    churn.num_servers = config.sim.resources.num_servers;
    churn.num_jobs = static_cast<int>(trace.jobs.size());
    churn.seed = static_cast<std::uint64_t>(flags.GetInt("fault-seed"));
    churn.zones = std::move(zones);
    FaultPlan generated = GenerateFaultPlan(churn);
    config.sim.faults.events.insert(config.sim.faults.events.end(), generated.events.begin(),
                                    generated.events.end());
    config.sim.faults.Sort();
  }
  {
    Result<RestartCost> parsed = RestartCost::Parse(flags.GetString("restart-cost"));
    if (!parsed.ok()) {
      std::fprintf(stderr, "--restart-cost: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    config.sim.restart_cost = *parsed;
  }

  // Topology: declared fault zones and the placement topology must agree —
  // running a zone-crash plan zone-obliviously (or spreading against domains
  // the fault plan contradicts) silently invalidates the experiment, so
  // mismatches are errors, never fallbacks.
  const std::string& topo_flag = flags.GetString("topology");
  ClusterTopology topology;
  if (topo_flag == "none") {
    if (!fault_zones.empty()) {
      std::fprintf(stderr,
                   "--topology none conflicts with the fault plan's declared zone '%s': the run "
                   "would be zone-oblivious while zone crashes fire; drop the zones or use "
                   "--topology auto\n",
                   fault_zones.front().name.c_str());
      return 2;
    }
  } else if (topo_flag == "auto") {
    if (!fault_zones.empty()) {
      Result<ClusterTopology> derived = ClusterTopology::FromZones(fault_zones);
      if (!derived.ok()) {
        std::fprintf(stderr, "--topology auto: %s\n", derived.status().ToString().c_str());
        return 2;
      }
      topology = *derived;
    }
  } else {
    Result<ClusterTopology> parsed = ClusterTopology::Parse(topo_flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--topology: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    topology = *parsed;
    for (const TopologyZone& fault_zone : fault_zones) {
      bool matched = false;
      for (const TopologyZone& zone : topology.zones()) {
        if (zone == fault_zone) {
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr,
                     "--topology: fault zone '%s' (servers %d-%d) is not a zone of \"%s\"\n",
                     fault_zone.name.c_str(), fault_zone.first_server, fault_zone.last_server,
                     topo_flag.c_str());
        return 2;
      }
    }
  }
  if (!flags.GetString("zone-loss-bound").empty()) {
    const double bound = flags.GetDouble("zone-loss-bound");
    if (!(bound > 0 && bound <= 1)) {
      std::fprintf(stderr, "--zone-loss-bound: %g is not in (0, 1]\n", bound);
      return 2;
    }
    if (topology.empty()) {
      std::fprintf(stderr, "--zone-loss-bound requires a topology (it had no zones)\n");
      return 2;
    }
    topology.set_loss_bound(bound);
  }
  if (!flags.GetString("gpu-types").empty()) {
    // Sugar: rewrite name:count[:speed] entries into the topology's canonical
    // `gpu-type name=.. count=.. speed=..` form and reparse, so the flag gets
    // the same validation (duplicate names, positive counts/speeds) for free.
    std::string spec = topology.ToSpec();
    std::string entries = flags.GetString("gpu-types");
    std::size_t pos = 0;
    while (pos <= entries.size()) {
      const std::size_t comma = std::min(entries.find(',', pos), entries.size());
      const std::string entry = entries.substr(pos, comma - pos);
      pos = comma + 1;
      const std::size_t c1 = entry.find(':');
      const std::size_t c2 = c1 == std::string::npos ? std::string::npos : entry.find(':', c1 + 1);
      if (c1 == std::string::npos || c1 == 0 || c1 + 1 >= entry.size()) {
        std::fprintf(stderr, "--gpu-types: \"%s\" is not name:count[:speed]\n", entry.c_str());
        return 2;
      }
      const std::string name = entry.substr(0, c1);
      const std::string count = entry.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                                             : c2 - c1 - 1);
      const std::string speed = c2 == std::string::npos ? "1" : entry.substr(c2 + 1);
      if (!spec.empty()) {
        spec += ";";
      }
      spec += "gpu-type name=" + name + " count=" + count + " speed=" + speed;
    }
    Result<ClusterTopology> parsed = ClusterTopology::Parse(spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--gpu-types: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    topology = *parsed;
  }
  if (!topology.empty() || topology.has_gpu_types()) {
    config.sim.topology = topology;
  }
  // The engines' input contract (sim/cluster.h): a violation exits 2 with
  // its one-line reason instead of aborting mid-run.
  const auto rejects = [&](const Trace& run_trace) {
    const Status st = ValidateSimInputs(run_trace, config.sim);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
    }
    return !st.ok();
  };

  if (flags.GetString("engine") == "rt") {
    // The wall-clock mini-cluster: a generated micro-trace (seconds of wall
    // time) run on real threads or real worker processes, reported through
    // the same RunReport schema as the simulation engines.
    const int rt_jobs = static_cast<int>(flags.GetInt("rt-jobs"));
    if (rt_jobs < 1 || rt_jobs > config.sim.resources.total_gpus) {
      std::fprintf(stderr, "--rt-jobs: %d is not in [1, --gpus=%d]\n", rt_jobs,
                   config.sim.resources.total_gpus);
      return 2;
    }
    const ModelZoo zoo;
    Trace rt_trace;
    for (int i = 0; i < rt_jobs; ++i) {
      const DatasetId d = rt_trace.catalog.Add("rt-d" + std::to_string(i),
                                               MB(flags.GetDouble("rt-dataset-mb")),
                                               KB(flags.GetDouble("rt-block-kb")));
      JobSpec job = MakeJob(static_cast<JobId>(i), zoo, "ResNet-50", 1, d, 1.0, 0);
      job.total_bytes = static_cast<Bytes>(flags.GetDouble("rt-epochs") *
                                           static_cast<double>(MB(flags.GetDouble("rt-dataset-mb"))));
      rt_trace.jobs.push_back(job);
    }
    if (rejects(rt_trace)) {
      return 2;
    }

    std::shared_ptr<Scheduler> rt_scheduler;
    if (!config.policy.empty()) {
      Result<std::shared_ptr<Scheduler>> made =
          MakeSchedulerByName(config.policy, config.scheduler_options);
      if (!made.ok()) {
        std::fprintf(stderr, "--policy: %s\n", made.status().ToString().c_str());
        return 2;
      }
      rt_scheduler = *made;
    } else {
      rt_scheduler = MakeScheduler(config.scheduler, config.cache, config.scheduler_options);
    }

    RtOptions rt_options;
    rt_options.faults = config.sim.faults;
    rt_options.restart_cost = config.sim.restart_cost;
    rt_options.topology = config.sim.topology;
    rt_options.workers_processes = flags.GetBool("workers-processes");
    rt_options.minidump_dir = flags.GetString("minidump-dir");
    rt_options.max_wall_seconds = flags.GetDouble("rt-max-wall-seconds");

    std::printf("Running %s over %d rt jobs on %d GPUs / %.1f TB cache / %.1f Gbps egress "
                "(%s workers)\n",
                config.Name().c_str(), rt_jobs, config.sim.resources.total_gpus,
                ToTB(config.sim.resources.total_cache), ToGbps(config.sim.resources.remote_io),
                rt_options.workers_processes ? "process" : "thread");
    RtCluster cluster(&rt_trace, std::move(rt_scheduler), config.sim.resources, rt_options);
    const RtResult rt = cluster.Run();

    bool invariant_ok = true;
    Table summary({"metric", "value"});
    summary.AddRow({"completed jobs", std::to_string(static_cast<int>(rt.jobs.size()) -
                                                     rt.unfinished_jobs) +
                                          "/" + std::to_string(rt.jobs.size())});
    summary.AddRow({"makespan (s)", Fmt(rt.makespan)});
    AddFaultRows(rt.faults, rt_options.restart_cost, &summary);
    summary.AddRow({"worker respawns", std::to_string(rt.worker_respawns)});
    for (const RtJobResult& j : rt.jobs) {
      if (!j.completed) {
        continue;
      }
      const Dataset& d = rt_trace.catalog.Get(rt_trace.jobs[static_cast<std::size_t>(j.id)].dataset);
      const std::int64_t blocks_total =
          std::max<std::int64_t>(1, (rt_trace.jobs[static_cast<std::size_t>(j.id)].total_bytes +
                                     d.block_size / 2) / d.block_size);
      if (j.cache_hits + j.cache_misses != blocks_total + j.blocks_refetched) {
        std::fprintf(stderr,
                     "completion invariant VIOLATED for job %d: %lld hits + %lld misses != "
                     "%lld blocks + %lld refetched\n",
                     j.id, static_cast<long long>(j.cache_hits),
                     static_cast<long long>(j.cache_misses), static_cast<long long>(blocks_total),
                     static_cast<long long>(j.blocks_refetched));
        invariant_ok = false;
      }
    }
    summary.Print();
    for (const std::string& dump : rt.minidump_paths) {
      std::printf("minidump: %s\n", dump.c_str());
    }

    if (!flags.GetString("json").empty()) {
      RunReport report = MakeRtRunReport(config.Name(), rt);
      if (!config.sim.topology.empty() || config.sim.topology.has_gpu_types()) {
        report.AddExtra("topology", config.sim.topology.ToSpec());
      }
      std::ofstream(flags.GetString("json")) << report.ToJson() << "\n";
      std::printf("wrote %s\n", flags.GetString("json").c_str());
    }
    if (rt.timed_out) {
      std::fprintf(stderr, "rt run timed out after %.1fs\n", rt_options.max_wall_seconds);
      return 1;
    }
    return invariant_ok && rt.unfinished_jobs == 0 ? 0 : 1;
  }

  if (rejects(trace)) {
    return 2;
  }
  std::printf("Running %s over %zu jobs on %d GPUs / %.1f TB cache / %.1f Gbps egress (%s "
              "engine)\n",
              config.Name().c_str(), trace.jobs.size(), config.sim.resources.total_gpus,
              ToTB(config.sim.resources.total_cache), ToGbps(config.sim.resources.remote_io),
              flags.GetString("engine").c_str());
  const SimResult result = RunExperiment(trace, config);
  RunReport report = MakeRunReport(config.Name(), flags.GetString("engine"), result);

  Table summary({"metric", "value"});
  summary.AddRow({"avg JCT (min)", Fmt(report.jct.avg_jct_min)});
  summary.AddRow({"p50 JCT (min)", Fmt(report.jct.p50_jct_min)});
  summary.AddRow({"p90 JCT (min)", Fmt(report.jct.p90_jct_min)});
  summary.AddRow({"p95 JCT (min)", Fmt(report.jct.p95_jct_min)});
  summary.AddRow({"p99 JCT (min)", Fmt(report.jct.p99_jct_min)});
  summary.AddRow({"avg queue / run (min)",
                  Fmt(report.jct.avg_queue_min) + " / " + Fmt(report.jct.avg_run_min)});
  summary.AddRow({"makespan (min)", Fmt(result.MakespanMinutes())});
  summary.AddRow({"avg fairness ratio", Fmt(result.AvgFairness(), 3)});
  for (const TenantSummary& g : report.gpu_types) {
    summary.AddRow({"gpu-type " + g.name + " (jobs, avg/p99 JCT min)",
                    std::to_string(g.jct.finished) + ", " + Fmt(g.jct.avg_jct_min) + "/" +
                        Fmt(g.jct.p99_jct_min)});
  }
  summary.AddRow({"avg remote IO (MB/s)",
                  Fmt(ToMBps(result.remote_io_usage.TimeAverage(0, result.makespan)))});
  if (config.engine == EngineKind::kFine) {
    summary.AddRow({"engine steps", std::to_string(result.steps.steps)});
    summary.AddRow({"engine events (miss/hit/unblock/drain)",
                    std::to_string(result.steps.miss_completions) + "/" +
                        std::to_string(result.steps.hit_completions) + "/" +
                        std::to_string(result.steps.unblocks) + "/" +
                        std::to_string(result.steps.drains)});
  }
  if (!config.sim.faults.empty()) {
    AddFaultRows(result.faults, config.sim.restart_cost, &summary);
  }
  summary.Print();
  for (const FaultStats::Window& w : result.faults.windows) {
    std::printf("fault window [%s] %.0fs-%.0fs: avg throughput %.1f MB/s\n", w.label.c_str(),
                w.start, w.end, ToMBps(w.avg_throughput));
  }

  if (flags.GetBool("series")) {
    auto print = [](const char* label, const TimeSeries& s, double scale) {
      std::printf("%s:", label);
      for (const auto& [t, v] : s.Downsample(16)) {
        std::printf(" %.1f", v * scale);
      }
      std::printf("\n");
    };
    print("throughput MB/s", result.total_throughput, 1e-6);
    print("remote IO MB/s", result.remote_io_usage, 1e-6);
    print("fairness", result.fairness_ratio, 1.0);
  }

  if (!flags.GetString("dump-jobs").empty()) {
    std::ofstream out(flags.GetString("dump-jobs"));
    out << "id,submit_seconds,start_seconds,finish_seconds,jct_seconds\n";
    for (const JobResult& j : result.jobs) {
      out << j.id << "," << j.submit_time << "," << j.first_start_time << "," << j.finish_time
          << "," << j.Jct() << "\n";
    }
  }

  if (!flags.GetString("json").empty()) {
    if (!config.sim.topology.empty() || config.sim.topology.has_gpu_types()) {
      report.AddExtra("topology", config.sim.topology.ToSpec());
    }
    std::ofstream(flags.GetString("json")) << report.ToJson() << "\n";
    std::printf("wrote %s\n", flags.GetString("json").c_str());
  }
  return 0;
}
