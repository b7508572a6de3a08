// Scheduler-solve latency: one `Schedule` call per policy on seeded
// snapshots of 64 to 4096 active jobs.  This is the layer both engines and
// silodd share, so it is timed on its own, away from any engine.
//
// Each cell records the latency p50/p99 over repeated solves of one frozen
// snapshot (the best of three rounds), plus the PlanDigest of the plan (the
// first solve of a freshly built scheduler, so stateful storage policies
// digest deterministically).  A cell whose scheduler runs Gavel's fair-share
// solve (gavel+silod) also records that first solve's predicate evaluations:
// its fairness-ratio and throttle-level probes (GavelScheduler counters).
//
// When gavel+silod is among the policies, one more cell,
// "gavel+silod/sequence", solves a seeded series of snapshots perturbed from
// the 64- and 256-job snapshots with one GavelScheduler, as an engine's
// scheduler sees a run: each search starts from where the last one ended.
// It records the digest of the whole series and the total probes of each
// kind, and checks every plan against a fresh scheduler's for the same
// snapshot (the cold fairness probe total is reported, not gated).
//
//   bench_sched_solve [--out=PATH] [--sizes=N,N,...] [--policies=A,B,...]
//                     [--baseline=PATH] [--max-regress=F]
//
// With --baseline, the run fails (exit 1, a "FAIL:" line per failure) when
// any cell's digest differs from the committed one, when a cell makes more
// probes of either kind than the committed counts, or when a cell's p50 is
// more than --max-regress (default 0.3) slower than the committed p50 in
// each of up to three attempts.  The sequence cell fails on a different
// series digest, on more probes of either kind than committed, and on any
// plan that differs from the cold solve's.  Digests and probe counts are
// exact.  It
// also fails on a baseline that does not parse or is not a "sched_solve"
// report, on a cell the baseline lacks, on a baseline cell without a string
// "digest" or a numeric "p50_us", and on a probe-counting cell whose
// baseline row has no count in "fair_probes" or "throttle_probes".
// Baseline cells the run did not time pass.  A --sizes entry that is not a
// positive integer, or a --max-regress that is negative or not finite,
// exits 2.
//
// The snapshot recipe (MakeSolveSnapshot in bench_util.h, seed 17) is
// frozen so committed baselines stay comparable across refactors.  Writes
// BENCH_sched_solve.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/digest.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/policy_registry.h"
#include "src/sched/gavel.h"

using namespace silod;
using namespace silod::bench;

namespace {

struct Cell {
  std::string name;  // "<policy>/<jobs>".
  int reps = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t digest = 0;
  // Probes of the digest solve, for schedulers that run the fair-share solve.
  std::optional<std::uint64_t> fair_probes;
  std::optional<std::uint64_t> throttle_probes;
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

// The warm-start cell's name and its solves per snapshot size.
constexpr char kSequenceCell[] = "gavel+silod/sequence";
constexpr int kSequenceSize[] = {64, 256};
constexpr int kSequenceSolves = 32;

struct SequenceCell {
  int solves = 0;
  std::uint64_t digest = 0;  // FNV-1a over every plan's PlanDigest, in order.
  std::uint64_t fair_probes = 0;
  std::uint64_t throttle_probes = 0;
  std::uint64_t cold_fair_probes = 0;  // The same solves, each by a fresh scheduler.
  int cold_mismatches = 0;  // Plans whose digest differs from the cold solve's.
};

// One GavelScheduler solves kSequenceSolves snapshots per size, each a step
// on from the last (seed 29): ten minutes pass, running jobs fill their
// caches and shrink their remaining work, a running job finishes now and
// then, the last plan's admissions hold GPUs, egress degrades to half one
// solve in five and a rack's worth of cache is down one in ten.
SequenceCell RunSequence() {
  SequenceCell cell;
  GavelScheduler warm(nullptr, /*silod_aware=*/true);
  Fnv1a64 digest;
  Rng rng(29);
  for (const int n : kSequenceSize) {
    const std::unique_ptr<SolveSnapshot> fixture = MakeSolveSnapshot(n);
    const Snapshot& base = fixture->snapshot;
    Snapshot snap = base;
    std::vector<std::size_t> running;
    for (int k = 0; k < kSequenceSolves; ++k) {
      snap.now += Minutes(10);
      snap.resources.remote_io = base.resources.remote_io * (rng.NextDouble() < 0.2 ? 0.5 : 1.0);
      snap.resources.total_cache =
          base.resources.total_cache / 4 * (rng.NextDouble() < 0.1 ? 3 : 4);
      running.clear();
      for (std::size_t i = 0; i < snap.jobs.size(); ++i) {
        JobView& view = snap.jobs[i];
        if (!view.running) {
          continue;
        }
        running.push_back(i);
        const Bytes size = fixture->trace.catalog.Get(view.spec->dataset).size;
        const Bytes filled =
            static_cast<Bytes>(0.05 * rng.NextDouble() * static_cast<double>(size));
        view.effective_cache = std::min(size, view.effective_cache + filled);
        const Bytes trained = static_cast<Bytes>(0.05 * rng.NextDouble() *
                                                 static_cast<double>(view.spec->total_bytes));
        view.remaining_bytes = std::max<Bytes>(1, view.remaining_bytes - trained);
      }
      if (!running.empty() && rng.NextDouble() < 0.3) {
        snap.jobs.erase(snap.jobs.begin() +
                        static_cast<std::ptrdiff_t>(running[rng.NextBelow(running.size())]));
      }
      const AllocationPlan plan = warm.Schedule(snap);
      GavelScheduler cold(nullptr, /*silod_aware=*/true);
      const std::uint64_t plan_digest = PlanDigest(plan);
      cell.cold_mismatches += plan_digest != PlanDigest(cold.Schedule(snap));
      cell.cold_fair_probes += cold.fair_probes();
      digest.U64(plan_digest);
      ++cell.solves;
      for (JobView& view : snap.jobs) {
        if (!view.running && plan.IsRunning(view.spec->id)) {
          view.running = true;
          view.effective_cache = 0;
        }
      }
    }
  }
  cell.digest = digest.hash();
  cell.fair_probes = warm.fair_probes();
  cell.throttle_probes = warm.throttle_probes();
  return cell;
}

// Gates the sequence cell against its baseline row; prints each failure and
// returns false if there was one.
bool CheckSequence(const Baseline& baseline, const SequenceCell& cell) {
  const Result<const JsonValue*> row =
      baseline.Row(kSequenceCell, {{"digest", JsonValue::Kind::kString},
                                   {"fair_probes", JsonValue::Kind::kNumber},
                                   {"throttle_probes", JsonValue::Kind::kNumber}});
  if (!row.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", row.status().message().c_str());
    return false;
  }
  bool ok = true;
  const std::string& base_digest = (*row)->Find("digest")->text();
  if (base_digest != FormatDigest(cell.digest)) {
    std::fprintf(stderr, "FAIL: %s series digest %s, baseline %s\n", kSequenceCell,
                 FormatDigest(cell.digest).c_str(), base_digest.c_str());
    ok = false;
  }
  ok = CountWithinBaseline(**row, kSequenceCell, "fair_probes", cell.fair_probes) && ok;
  ok = CountWithinBaseline(**row, kSequenceCell, "throttle_probes", cell.throttle_probes) && ok;
  return ok;
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
  if (const auto* gavel = dynamic_cast<const GavelScheduler*>(scheduler->get());
      gavel != nullptr && gavel->fair_probes() > 0) {
    cell.fair_probes = gavel->fair_probes();
    cell.throttle_probes = gavel->throttle_probes();
  }
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

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("out", "BENCH_sched_solve.json", "report path");
  flags.Define("sizes", "64,256,1024,4096", "snapshot sizes in active jobs, comma-separated");
  flags.Define("policies", "", "policy names, comma-separated (default: all 15)");
  flags.Define("baseline", "", "committed report to gate against (exact digests)");
  flags.Define("max-regress", "0.3", "allowed p50 slowdown against the baseline, a fraction");
  Status status = flags.Parse(argc, argv);
  const Result<std::vector<int>> sizes = ParseSizes(flags.GetString("sizes"));
  const Result<double> max_regress = ParseMaxRegress(flags.GetString("max-regress"));
  const auto keep_first_error = [&status](const auto& parsed) {
    if (status.ok() && !parsed.ok()) {
      status = parsed.status();
    }
  };
  keep_first_error(sizes);
  keep_first_error(max_regress);
  if (status.ok() && !flags.positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" + flags.positional()[0] + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), flags.Help(argv[0]).c_str());
    return 2;
  }
  const std::string policies_spec = flags.GetString("policies");
  std::vector<std::string> policies;
  for (const std::string_view policy : SplitList(policies_spec, ',')) {
    if (!policy.empty()) {
      policies.emplace_back(policy);
    }
  }
  if (policies.empty()) {
    policies = AllPolicyNames();
  }

  std::optional<Baseline> baseline;
  if (const std::string path = flags.GetString("baseline"); !path.empty()) {
    Result<Baseline> loaded = Baseline::Load(path, "sched_solve", "cells", "cell");
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", loaded.status().message().c_str());
      return 1;
    }
    baseline = *std::move(loaded);
  }

  Table table(
      {"policy", "jobs", "reps", "p50 us", "p99 us", "fair probes", "throttle probes", "digest"});
  std::vector<Cell> cells;
  bool failed = false;
  for (const int n : *sizes) {
    const std::unique_ptr<SolveSnapshot> snapshot = MakeSolveSnapshot(n);
    for (const std::string& policy : policies) {
      Cell cell = TimeCell(policy, n, snapshot->snapshot);
      const JsonValue* row = nullptr;  // The cell's baseline row, when gated.
      if (baseline) {
        const Result<const JsonValue*> found =
            cell.fair_probes
                ? baseline->Row(cell.name, {{"digest", JsonValue::Kind::kString},
                                            {"p50_us", JsonValue::Kind::kNumber},
                                            {"fair_probes", JsonValue::Kind::kNumber},
                                            {"throttle_probes", JsonValue::Kind::kNumber}})
                : baseline->Row(cell.name, {{"digest", JsonValue::Kind::kString},
                                            {"p50_us", JsonValue::Kind::kNumber}});
        if (found.ok()) {
          row = *found;
        } else {
          std::fprintf(stderr, "FAIL: %s\n", found.status().message().c_str());
          failed = true;
        }
      }
      // The reader has parsed every number token, so this parse cannot fail.
      const double base = row != nullptr ? *ParseDouble(row->Find("p50_us")->text()) : 0;
      // A slow cell is timed again, up to twice, before it counts as a
      // regression: on a shared host other tenants slow single cells by
      // 50% or more.  The best attempt is kept.
      for (int retry = 0; retry < 2 && base > 0 && cell.p50_us > (1.0 + *max_regress) * base;
           ++retry) {
        const Cell again = TimeCell(policy, n, snapshot->snapshot);
        if (again.p50_us < cell.p50_us) {
          cell = again;
        }
      }
      const auto count = [](const std::optional<std::uint64_t>& probes) {
        return probes ? std::to_string(*probes) : std::string("-");
      };
      table.AddRow({policy, std::to_string(n), std::to_string(cell.reps), Fmt(cell.p50_us),
                    Fmt(cell.p99_us), count(cell.fair_probes), count(cell.throttle_probes),
                    FormatDigest(cell.digest)});
      cells.push_back(cell);
      if (row == nullptr) {
        continue;
      }
      const std::string& base_digest = row->Find("digest")->text();
      if (base_digest != FormatDigest(cell.digest)) {
        std::fprintf(stderr, "FAIL: %s plan digest %s, baseline %s\n", cell.name.c_str(),
                     FormatDigest(cell.digest).c_str(), base_digest.c_str());
        failed = true;
      }
      // Probe counts are exact work counters: any increase fails, whatever
      // the host's speed.
      if (cell.fair_probes) {
        failed = !CountWithinBaseline(*row, cell.name, "fair_probes", *cell.fair_probes) || failed;
        failed = !CountWithinBaseline(*row, cell.name, "throttle_probes", *cell.throttle_probes) ||
                 failed;
      }
      if (base > 0 && cell.p50_us > (1.0 + *max_regress) * base) {
        std::fprintf(stderr, "FAIL: %s p50 regressed: %.1f us vs baseline %.1f us (+%.0f%%)\n",
                     cell.name.c_str(), cell.p50_us, base, 100.0 * (cell.p50_us / base - 1.0));
        failed = true;
      }
    }
  }
  table.Print();

  std::optional<SequenceCell> sequence;
  if (std::find(policies.begin(), policies.end(), "gavel+silod") != policies.end()) {
    sequence = RunSequence();
    std::printf("%s: %d solves, fair probes %llu (cold %llu), throttle probes %llu, digest %s\n",
                kSequenceCell, sequence->solves,
                static_cast<unsigned long long>(sequence->fair_probes),
                static_cast<unsigned long long>(sequence->cold_fair_probes),
                static_cast<unsigned long long>(sequence->throttle_probes),
                FormatDigest(sequence->digest).c_str());
    if (sequence->cold_mismatches > 0) {
      std::fprintf(stderr, "FAIL: %s: %d of %d plans differ from a fresh scheduler's\n",
                   kSequenceCell, sequence->cold_mismatches, sequence->solves);
      failed = true;
    }
    if (baseline) {
      failed = !CheckSequence(*baseline, *sequence) || failed;
    }
  }

  JsonValue rows = JsonValue::Array();
  for (const Cell& c : cells) {
    JsonValue row = JsonValue::Object(/*one_line=*/true);
    row.Set("cell", JsonValue::String(c.name))
        .Set("reps", JsonValue::Int(c.reps))
        .Set("p50_us", JsonValue::Number(c.p50_us))
        .Set("p99_us", JsonValue::Number(c.p99_us))
        .Set("digest", JsonValue::String(FormatDigest(c.digest)));
    if (c.fair_probes) {
      row.Set("fair_probes", JsonValue::Int(static_cast<std::int64_t>(*c.fair_probes)))
          .Set("throttle_probes", JsonValue::Int(static_cast<std::int64_t>(*c.throttle_probes)));
    }
    rows.Push(std::move(row));
  }
  if (sequence) {
    JsonValue row = JsonValue::Object(/*one_line=*/true);
    row.Set("cell", JsonValue::String(kSequenceCell))
        .Set("solves", JsonValue::Int(sequence->solves))
        .Set("digest", JsonValue::String(FormatDigest(sequence->digest)))
        .Set("fair_probes", JsonValue::Int(static_cast<std::int64_t>(sequence->fair_probes)))
        .Set("throttle_probes",
             JsonValue::Int(static_cast<std::int64_t>(sequence->throttle_probes)))
        .Set("cold_fair_probes",
             JsonValue::Int(static_cast<std::int64_t>(sequence->cold_fair_probes)));
    rows.Push(std::move(row));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("benchmark", JsonValue::String("sched_solve"))
      .Set("sizes", JsonValue::String(flags.GetString("sizes")))
      .Set("cells", std::move(rows));
  const std::string out_path = flags.GetString("out");
  std::ofstream(out_path) << doc.Format() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
