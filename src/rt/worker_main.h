// Worker entry points for the runtime (docs/MODEL.md §10).
//
// RunWorker is the runtime's one loader->trainer pipeline.  It speaks the
// rt/wire.h protocol on one end of a socketpair, and NodeManager runs it in
// either of two ways: on a std::thread inside the driver (thread mode), or in
// a worker process that re-execs the host binary
// ("/proc/self/exe --silod-worker-fd=3") with the socket on fd 3 (process
// mode).  Any binary that may act as a process-mode worker therefore calls
// MaybeRunWorkerMain() at the very top of main().  In the common case (no
// --silod-worker-fd flag) it returns -1 immediately and the binary proceeds
// as itself; in a worker child it never returns to the caller's main — it
// runs the worker loop and the process exits with the loop's status.
#ifndef SILOD_SRC_RT_WORKER_MAIN_H_
#define SILOD_SRC_RT_WORKER_MAIN_H_

namespace silod {

// Runs one worker over `fd` until its job completes, a kStop drains it or the
// socket dies; closes `fd` and returns the exit code: 0 after a run, 3 when
// the hello/assignment handshake fails.
int RunWorker(int fd);

// Returns -1 when argv carries no --silod-worker-fd=<fd> flag; otherwise
// runs RunWorker on that fd and returns the process exit code (the caller
// should return it from main immediately).
int MaybeRunWorkerMain(int argc, char** argv);

}  // namespace silod

#endif  // SILOD_SRC_RT_WORKER_MAIN_H_
