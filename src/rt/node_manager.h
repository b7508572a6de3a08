// NodeManager: the per-node worker pool of the runtime (docs/MODEL.md §10).
//
// One worker per job, running RunWorker (rt/worker_main.h), the runtime's one
// loader->trainer pipeline.  Each worker talks to a per-worker handler thread
// over an AF_UNIX socketpair in the rt/wire.h protocol.  The division of
// labor keeps the cluster state in one place: workers own only their
// compute/pipeline loop; every cache access, throttle wait and remote read
// happens in the driver via Host::FetchBlock while the worker blocks on the
// reply — so a kill has no shared state to corrupt, and the restart pays its
// refetch cost through the very same DataManager path.
//
// Only spawn, kill and reap depend on the mode chosen at construction:
//
//   step    process mode                            thread mode
//   spawn   fork/exec of the host binary            std::thread running RunWorker
//           ("/proc/self/exe --silod-worker-fd=3")
//   kill    SIGKILL                                 shutdown(SHUT_RDWR) on the driver's
//                                                   end of the socket
//   reap    waitpid                                 join; RunWorker's return code is
//                                                   the exit status
//
// The handler checks every worker frame against the worker's assignment
// (CheckWorkerFrame in rt/wire.h); a malformed or out-of-range frame is a
// protocol error, and the handler kills the worker without marking the kill
// intentional.
//
// Exit classification: a worker that dies while marked killed (injected
// crash) or stopping (drain), or after sending kDrained, exited as expected;
// anything else — a real crash or a protocol error — is surfaced through
// Host::OnUnexpectedExit so the cluster can write a minidump and respawn.
//
// Incarnations: every Spawn bumps the job's incarnation, and all Host
// callbacks carry it.  Frames can sit in a socket buffer after their worker
// was killed; the incarnation lets the cluster drop such stale progress
// instead of resurrecting pre-crash counters after a rollback.
#ifndef SILOD_SRC_RT_NODE_MANAGER_H_
#define SILOD_SRC_RT_NODE_MANAGER_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/workload/job.h"

namespace silod {

struct WorkerConfig {
  JobId job = kInvalidJob;
  std::uint64_t incarnation = 0;
  std::int64_t blocks_total = 0;
  std::int64_t resume_done = 0;     // Checkpoint index the worker resumes from.
  // Fetch-cursor resume index (>= resume_done); the gap is pre-staged, so a
  // checkpoint-everything restart freezes the pipeline instead of re-reading
  // it.
  std::int64_t resume_fetched = 0;
  std::int64_t num_blocks = 0;      // Blocks per epoch (shuffle geometry).
  std::int64_t pipeline_depth = 1;
  std::uint64_t rng_seed = 0;     // Epoch-shuffle seed.
  Seconds block_compute = 0;
};

class NodeManager {
 public:
  // The cluster side of the protocol.  FetchBlock runs the full fetch path
  // (cache access under the manager lock, throttle wait, remote read with
  // retries) on the handler thread while the worker blocks on the reply;
  // implementations must return promptly once the run is stopping (via
  // *aborted).  All callbacks may run concurrently from different handler
  // threads.
  class Host {
   public:
    virtual ~Host() = default;
    virtual bool FetchBlock(JobId job, std::uint64_t incarnation, std::int64_t fetch_index,
                            std::int64_t block, bool* aborted) = 0;
    virtual void OnBlockDone(JobId job, std::uint64_t incarnation, std::int64_t blocks_done) = 0;
    virtual void OnDrained(JobId job, std::uint64_t incarnation, std::int64_t blocks_done,
                           std::int64_t blocks_fetched, std::int64_t late_sleeps) = 0;
    // The worker died without being killed, stopped or drained.  Runs on the
    // handler thread after the worker was reaped; `exit_status` is the
    // waitpid status (process mode) or RunWorker's return code (thread mode).
    // The worker is already retired, so the implementation may Spawn a
    // replacement from inside the callback.
    virtual void OnUnexpectedExit(JobId job, std::uint64_t incarnation, int exit_status) = 0;
  };

  // `processes` picks the mode: one OS process per worker (true) or one
  // driver thread per worker (false).
  NodeManager(Host* host, bool processes);
  ~NodeManager();  // Stop(0) + joins if still running.

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  // Starts one worker for `config.job` and its handler thread.
  Status Spawn(const WorkerConfig& config);

  // Kills the job's live worker (an injected kWorkerCrash).  False when the
  // job has no live worker; a worker counts as live until its handler has
  // reaped it, so a kill never reaches a reused pid or fd.
  bool Kill(JobId job);

  // Blocks until every worker of `job` has been reaped and its handler
  // retired (so no stale FetchBlock is in flight), or `timeout` passes.
  // True when the job is idle.
  bool WaitIdle(JobId job, Seconds timeout);

  // Graceful shutdown: sends kStop to every live worker, waits up to `grace`
  // for them to drain and exit, kills stragglers, then joins every handler
  // thread (including long-retired ones).  Idempotent.
  void Stop(Seconds grace);

 private:
  // kReaped: the handler has reaped the worker and is about to close its fd
  // and report the exit; kExited: fully retired.
  enum class WorkerStateKind { kRunning, kKilled, kStopping, kReaped, kExited };

  struct Worker {
    WorkerConfig config;
    pid_t pid = -1;       // Process mode.
    int exit_code = 0;    // Thread mode: RunWorker's return, read after join.
    std::thread thread;   // Thread mode: runs RunWorker on the worker's end.
    int fd = -1;          // The driver's end of the socketpair.
    WorkerStateKind state = WorkerStateKind::kRunning;
    bool drained = false;
    std::thread handler;
  };

  // SIGKILL or socket shutdown, per mode; mu_ held, worker not yet reaped.
  void KillLocked(const Worker& worker);
  // Blocks until the worker is gone; returns its exit status.
  int Reap(Worker* worker);
  void HandlerLoop(Worker* worker);

  Host* const host_;
  const bool processes_;
  std::mutex mu_;
  std::condition_variable exited_cv_;
  bool stopped_ = false;
  // Append-only so Worker* stays stable for handler threads; exited workers
  // are retired in place and joined at Stop.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace silod

#endif  // SILOD_SRC_RT_NODE_MANAGER_H_
