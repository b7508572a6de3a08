// The benchmark binary (run.py builds it and invokes it):
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --silodd=<path> [--run-dir=.bench_run]
//
// Prints notes, then one JSON result line as the last line of stdout.
// Exits 1 when an output check failed, 2 on bad flags.
#include <sys/stat.h>

#include <cstdio>

#include "src/common/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  silod::FlagSet flags;
  flags.Define("workload", "", "flow400-gavel-churn | fine-busy400-fifo | serve-replay-sjf");
  flags.Define("seed", "1", "input seed; every generated input derives from it");
  flags.Define("seconds", "10", "measuring budget in seconds");
  flags.Define("trace", "0", "1 = per-layer run (spans), 0 = end-to-end run");
  flags.Define("silodd", "", "silodd binary (serve-replay-sjf)");
  flags.Define("run-dir", ".bench_run", "directory for sockets, journals and span files");
  if (const silod::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Help("perfbench").c_str());
    return 2;
  }
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt("trace") != 0;
  options.silodd = flags.GetString("silodd");
  options.run_dir = flags.GetString("run-dir");
  mkdir(options.run_dir.c_str(), 0755);

  const perfbench::RunOutput out = perfbench::RunWorkload(options);
  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : out.metrics.all()) {
    std::printf("# %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              perfbench::ResultLine(out.correct, out.attempted, out.failed, out.metrics).c_str());
  return out.correct ? 0 : 1;
}
