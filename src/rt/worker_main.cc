#include "src/rt/worker_main.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/common/text_codec.h"
#include "src/rt/epoch_order.h"
#include "src/rt/wire.h"

namespace silod {
namespace {

// The worker mirrors the in-process trainer's loader/trainer split: a loader
// thread walks the shuffled epoch order and asks the parent to fetch each
// block (the parent owns the cache, the throttles and the remote store — the
// worker only sees the latency as reply wait), a trainer thread consumes
// staged blocks at block_compute seconds apiece, and a heartbeat thread
// beacons liveness.  A reader thread demultiplexes the socket.  Everything
// stops promptly on kStop, on an aborted fetch, or on the socket dying
// (parent gone): real worker processes must never outlive their node manager.
struct WorkerState {
  int fd = -1;

  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::int64_t staged = 0;
  std::int64_t done = 0;
  std::int64_t fetched = 0;
  // One-slot fetch-reply mailbox (the loader has at most one fetch in
  // flight).
  bool have_reply = false;
  bool reply_hit = false;
  bool reply_aborted = false;

  // Serializes frame writes from loader/trainer/heartbeat.
  std::mutex write_mu;

  // Assignment.
  std::uint64_t job_id = 0;
  std::int64_t blocks_total = 0;
  std::int64_t resume_done = 0;
  std::int64_t resume_fetched = 0;
  std::int64_t num_blocks = 0;
  std::int64_t pipeline_depth = 1;
  std::uint64_t rng_seed = 0;
  double block_compute = 0;
  double heartbeat_period = 0.25;
};

void StopWorker(WorkerState* w) {
  std::lock_guard<std::mutex> lock(w->mu);
  w->stop = true;
  w->cv.notify_all();
}

// A failed write means the parent is gone; stop instead of erroring out.
void SendOrStop(WorkerState* w, WireType type, const std::vector<std::uint64_t>& words) {
  Status st;
  {
    std::lock_guard<std::mutex> lock(w->write_mu);
    st = WriteFrame(w->fd, type, words);
  }
  if (!st.ok()) {
    StopWorker(w);
  }
}

// Sleeps `seconds` in small slices so a kStop lands within ~5ms.
void InterruptibleSleep(WorkerState* w, double seconds) {
  constexpr double kSlice = 0.005;
  double remaining = seconds;
  while (remaining > 0) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      if (w->stop) {
        return;
      }
    }
    const double chunk = remaining < kSlice ? remaining : kSlice;
    std::this_thread::sleep_for(std::chrono::duration<double>(chunk));
    remaining -= chunk;
  }
}

void ReaderLoop(WorkerState* w) {
  for (;;) {
    auto frame = ReadFrame(w->fd);
    if (!frame.ok()) {
      StopWorker(w);  // EOF or a dead socket: parent is gone.
      return;
    }
    switch (frame->type) {
      case WireType::kFetchReply: {
        std::lock_guard<std::mutex> lock(w->mu);
        w->have_reply = true;
        w->reply_hit = frame->words[0] != 0;
        w->reply_aborted = frame->words[1] != 0;
        w->cv.notify_all();
        break;
      }
      case WireType::kStop:
        StopWorker(w);
        return;
      default:
        break;  // Unexpected but harmless; the parent validates its side.
    }
  }
}

void LoaderLoop(WorkerState* w) {
  EpochShuffler order(w->rng_seed, w->num_blocks);
  order.SeekTo(w->resume_fetched);
  std::int64_t fetched = w->resume_fetched;
  while (fetched < w->blocks_total) {
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait(lock, [&] { return w->stop || w->staged < w->pipeline_depth; });
      if (w->stop) {
        return;
      }
    }
    const std::int64_t block = order.Next();
    SendOrStop(w, WireType::kFetchRequest,
               {static_cast<std::uint64_t>(fetched), static_cast<std::uint64_t>(block)});
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait(lock, [&] { return w->stop || w->have_reply; });
      if (w->stop) {
        return;
      }
      w->have_reply = false;
      if (w->reply_aborted) {
        return;  // Parent is draining; the trainer stops via kStop.
      }
      ++fetched;
      w->fetched = fetched;
      ++w->staged;
      w->cv.notify_all();
    }
  }
}

void TrainerLoop(WorkerState* w) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(w->mu);
      if (w->done >= w->blocks_total) {
        return;
      }
      w->cv.wait(lock, [&] { return w->stop || w->staged > 0; });
      if (w->stop) {
        return;
      }
    }
    InterruptibleSleep(w, w->block_compute);
    std::int64_t done;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      if (w->stop) {
        return;
      }
      --w->staged;
      done = ++w->done;
      w->cv.notify_all();
    }
    SendOrStop(w, WireType::kBlockDone, {static_cast<std::uint64_t>(done)});
  }
}

void HeartbeatLoop(WorkerState* w) {
  for (;;) {
    InterruptibleSleep(w, w->heartbeat_period);
    std::int64_t done;
    {
      std::lock_guard<std::mutex> lock(w->mu);
      if (w->stop) {
        return;
      }
      done = w->done;
    }
    SendOrStop(w, WireType::kHeartbeat, {static_cast<std::uint64_t>(done)});
  }
}

int RunWorker(int fd) {
  WorkerState w;
  w.fd = fd;

  SendOrStop(&w, WireType::kHello, {static_cast<std::uint64_t>(::getpid())});
  auto assign = ReadFrame(fd);
  if (!assign.ok() || assign->type != WireType::kAssign) {
    return 3;
  }
  w.job_id = assign->words[0];
  w.blocks_total = static_cast<std::int64_t>(assign->words[1]);
  w.resume_done = static_cast<std::int64_t>(assign->words[2]);
  w.resume_fetched = static_cast<std::int64_t>(assign->words[3]);
  w.num_blocks = static_cast<std::int64_t>(assign->words[4]);
  w.pipeline_depth = static_cast<std::int64_t>(assign->words[5]);
  w.rng_seed = assign->words[6];
  w.block_compute = assign->AsDouble(7);
  w.heartbeat_period = assign->AsDouble(8);
  if (w.num_blocks <= 0 || w.blocks_total < 0 || w.resume_done < 0 ||
      w.resume_fetched < w.resume_done || w.resume_fetched > w.blocks_total ||
      w.resume_done > w.blocks_total || w.pipeline_depth < 1) {
    return 3;
  }
  w.done = w.resume_done;
  w.fetched = w.resume_fetched;
  // A checkpoint-everything restart resumes the frozen pipeline verbatim:
  // the fetched-but-uncomputed gap is already staged.
  w.staged = w.resume_fetched - w.resume_done;

  std::thread reader(ReaderLoop, &w);
  std::thread loader(LoaderLoop, &w);
  std::thread trainer(TrainerLoop, &w);
  std::thread heartbeat(HeartbeatLoop, &w);

  // The trainer returns at completion or stop; either way the run is over.
  trainer.join();
  StopWorker(&w);
  loader.join();
  heartbeat.join();
  {
    std::lock_guard<std::mutex> lock(w.mu);
    std::lock_guard<std::mutex> wlock(w.write_mu);
    WriteFrame(fd, WireType::kDrained,
               {static_cast<std::uint64_t>(w.done), static_cast<std::uint64_t>(w.fetched)})
        .ok();  // Best effort; the parent may already be gone.
  }
  // Unblock our own reader (it is parked in recv; the parent keeps its end
  // open until it has reaped us).
  ::shutdown(fd, SHUT_RD);
  reader.join();
  ::close(fd);
  return 0;
}

}  // namespace

int MaybeRunWorkerMain(int argc, char** argv) {
  constexpr const char kFlag[] = "--silod-worker-fd=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      const Result<std::int64_t> fd = ParseInt(argv[i] + sizeof(kFlag) - 1, 0, INT_MAX);
      if (!fd.ok()) {
        return 3;
      }
      return RunWorker(static_cast<int>(*fd));
    }
  }
  return -1;
}

}  // namespace silod
