#include "src/rt/node_manager.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/rt/wire.h"
#include "src/rt/worker_main.h"

namespace silod {

NodeManager::NodeManager(Host* host, bool processes) : host_(host), processes_(processes) {
  SILOD_CHECK(host_ != nullptr) << "NodeManager needs a host";
}

NodeManager::~NodeManager() { Stop(0); }

Status NodeManager::Spawn(const WorkerConfig& config) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::Internal(std::string("socketpair: ") + std::strerror(errno));
  }
  auto worker = std::make_unique<Worker>();
  worker->config = config;
  worker->fd = sv[0];
  Worker* raw = worker.get();
  // Checked and registered under one lock, so Stop never misses a worker
  // that a handler thread respawns concurrently.
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::FailedPrecondition("node manager is stopped");
  }
  if (processes_) {
    // Everything the child touches between fork and exec is prepared here:
    // only async-signal-safe calls are legal in the child of a
    // multi-threaded parent.
    static const char kExe[] = "/proc/self/exe";
    static const char kFlag[] = "--silod-worker-fd=3";
    char* const child_argv[] = {const_cast<char*>(kExe), const_cast<char*>(kFlag), nullptr};
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return Status::Internal(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child.  dup2 clears CLOEXEC on the copy, so fd 3 survives the exec.
      if (::dup2(sv[1], 3) < 0) {
        ::_exit(126);
      }
      ::execv(kExe, child_argv);
      ::_exit(127);
    }
    ::close(sv[1]);
    raw->pid = pid;
  } else {
    raw->thread = std::thread([raw, fd = sv[1]] { raw->exit_code = RunWorker(fd); });
  }
  workers_.push_back(std::move(worker));
  raw->handler = std::thread(&NodeManager::HandlerLoop, this, raw);
  return Status::Ok();
}

void NodeManager::KillLocked(const Worker& worker) {
  if (processes_) {
    ::kill(worker.pid, SIGKILL);
  } else {
    // Both directions: the worker's reads see EOF and its writes fail, so
    // every one of its threads stops; the handler's reads end the same way.
    ::shutdown(worker.fd, SHUT_RDWR);
  }
}

int NodeManager::Reap(Worker* worker) {
  if (!processes_) {
    worker->thread.join();
    return worker->exit_code;
  }
  int status = 0;
  while (::waitpid(worker->pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

bool NodeManager::Kill(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  // Latest entry wins: a respawned job has several retired workers.
  for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
    Worker* worker = it->get();
    if (worker->config.job != job) {
      continue;
    }
    if (worker->state != WorkerStateKind::kRunning) {
      return false;
    }
    // Marked before the kill so the handler's exit classification (under
    // this same mutex) always sees the kill as intentional.
    worker->state = WorkerStateKind::kKilled;
    KillLocked(*worker);
    return true;
  }
  return false;
}

bool NodeManager::WaitIdle(JobId job, Seconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout);
  return exited_cv_.wait_until(lock, deadline, [&] {
    for (const auto& worker : workers_) {
      if (worker->config.job == job && worker->state != WorkerStateKind::kExited) {
        return false;
      }
    }
    return true;
  });
}

void NodeManager::Stop(Seconds grace) {
  std::vector<Worker*> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    for (const auto& worker : workers_) {
      if (worker->state == WorkerStateKind::kRunning) {
        worker->state = WorkerStateKind::kStopping;
        // Under the lock, so the handler cannot have closed the fd yet.
        // Best effort: a dead peer just means the handler is already
        // unwinding.
        WriteFrame(worker->fd, WireType::kStop, {}).ok();
        live.push_back(worker.get());
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(grace);
    exited_cv_.wait_until(lock, deadline, [&] {
      for (const Worker* worker : live) {
        if (worker->state != WorkerStateKind::kExited) {
          return false;
        }
      }
      return true;
    });
    for (Worker* worker : live) {
      if (worker->state == WorkerStateKind::kStopping) {
        KillLocked(*worker);  // Straggler past the grace period.
      }
    }
  }
  for (const auto& worker : workers_) {
    if (worker->handler.joinable()) {
      worker->handler.join();
    }
  }
}

void NodeManager::HandlerLoop(Worker* worker) {
  const WorkerConfig& c = worker->config;

  // First frame must be the worker's hello; then hand it its assignment.
  // `end` records why the conversation stopped: OutOfRange is the worker
  // closing its end (it exited or died); anything else is a protocol error
  // or a socket that failed mid-conversation.
  Status end = Status::Internal("worker skipped its hello");
  if (auto hello = ReadFrame(worker->fd); !hello.ok()) {
    end = hello.status();
  } else if (hello->type == WireType::kHello) {
    end = WriteFrame(worker->fd, WireType::kAssign,
                     {static_cast<std::uint64_t>(c.job), static_cast<std::uint64_t>(c.blocks_total),
                      static_cast<std::uint64_t>(c.resume_done),
                      static_cast<std::uint64_t>(c.resume_fetched),
                      static_cast<std::uint64_t>(c.num_blocks),
                      static_cast<std::uint64_t>(c.pipeline_depth), c.rng_seed,
                      WireMessage::FromDouble(c.block_compute)});
  }
  while (end.ok()) {
    Result<WireMessage> frame = ReadFrame(worker->fd);
    if (!frame.ok()) {
      end = frame.status();
      break;
    }
    end = CheckWorkerFrame(*frame, c.num_blocks, c.blocks_total);
    if (!end.ok()) {
      break;
    }
    switch (frame->type) {
      case WireType::kFetchRequest: {
        bool aborted = false;
        const bool hit =
            host_->FetchBlock(c.job, c.incarnation, static_cast<std::int64_t>(frame->words[0]),
                              static_cast<std::int64_t>(frame->words[1]), &aborted);
        end = WriteFrame(worker->fd, WireType::kFetchReply,
                         {hit ? std::uint64_t{1} : 0, aborted ? std::uint64_t{1} : 0});
        break;
      }
      case WireType::kBlockDone:
        host_->OnBlockDone(c.job, c.incarnation, static_cast<std::int64_t>(frame->words[0]));
        break;
      case WireType::kDrained: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          worker->drained = true;
        }
        host_->OnDrained(c.job, c.incarnation, static_cast<std::int64_t>(frame->words[0]),
                         static_cast<std::int64_t>(frame->words[1]),
                         static_cast<std::int64_t>(frame->words[2]));
        break;
      }
      default:
        break;  // CheckWorkerFrame admits no other type.
    }
  }
  if (end.code() != StatusCode::kOutOfRange) {
    // Make sure the worker is gone before reaping it.  The kill is not
    // marked intentional: a worker that broke the protocol reports an
    // unexpected exit.  (A worker already killed or stopping keeps its
    // classification; killing it again is harmless before the reap.)
    std::lock_guard<std::mutex> lock(mu_);
    if (worker->state == WorkerStateKind::kRunning) {
      SILOD_LOG(Error) << "worker for job " << c.job << ": " << end.ToString();
    }
    KillLocked(*worker);
  }

  const int status = Reap(worker);
  bool expected;
  {
    // Marked reaped before the fd closes, so Kill and Stop never signal a
    // pid that is no longer our child or shut down a reused fd number.
    std::lock_guard<std::mutex> lock(mu_);
    expected = worker->drained || worker->state == WorkerStateKind::kKilled ||
               worker->state == WorkerStateKind::kStopping;
    worker->state = WorkerStateKind::kReaped;
  }
  ::close(worker->fd);
  if (!expected) {
    // Reported before the worker is retired so the host can respawn from
    // inside the callback without racing this worker's bookkeeping.
    host_->OnUnexpectedExit(c.job, c.incarnation, status);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker->state = WorkerStateKind::kExited;
    exited_cv_.notify_all();
  }
}

}  // namespace silod
