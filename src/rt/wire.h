// The NodeManager <-> worker wire protocol (docs/MODEL.md §10).
//
// One AF_UNIX stream socket per worker.  Every message is a length-prefixed
// frame:
//
//   u32 LE  body length (bytes)
//   u8      message type (WireType)
//   u64 LE  payload words (doubles bit-cast to u64)
//
// Fixed-width words keep the framing trivial and platform-independent; the
// reader validates the type and the word count per type, so a truncated or
// corrupt frame surfaces as an error instead of a misparse, and the driver
// checks every worker frame's values against the worker's assignment
// (CheckWorkerFrame) before acting on it.  The transport loop (length
// prefix, EINTR/short transfers, MSG_NOSIGNAL) is the shared one in
// common/framing.h, also used by the silodd request protocol (serve/proto.h);
// this header owns only the word encoding and the per-type word counts.
//
// Conversation (parent perspective):
//   -> kAssign       job geometry + resume index, sent once after spawn
//   <- kHello        worker pid, first frame after exec
//   <- kFetchRequest loader wants block `block` at absolute fetch index
//   -> kFetchReply   after the parent paid the full fetch path (cache access,
//                    throttle, remote read with retries): hit + aborted flags
//   <- kBlockDone    one block's compute finished; running done count
//   -> kStop         drain politely; worker answers kDrained and exits 0
//   <- kDrained      final counters, last frame before exit (a worker killed
//                    past the stop grace period sends none)
#ifndef SILOD_SRC_RT_WIRE_H_
#define SILOD_SRC_RT_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace silod {

enum class WireType : std::uint8_t {
  kHello = 1,
  kAssign = 2,
  kFetchRequest = 3,
  kFetchReply = 4,
  kBlockDone = 5,
  // 6 was a heartbeat; the number stays unused so no peer misreads it.
  kDrained = 7,
  kStop = 8,
};

const char* WireTypeName(WireType type);

struct WireMessage {
  WireType type = WireType::kHello;
  std::vector<std::uint64_t> words;

  double AsDouble(std::size_t i) const;
  static std::uint64_t FromDouble(double d);
};

// Payload word layouts (all u64 unless noted):
//   kHello        [pid]
//   kAssign       [job_id, blocks_total, resume_done, resume_fetched,
//                  num_blocks, pipeline_depth, rng_seed,
//                  block_compute(double)]
//   kFetchRequest [fetch_index, block]
//   kFetchReply   [hit, aborted]
//   kBlockDone    [blocks_done]
//   kDrained      [blocks_done, blocks_fetched, late_sleeps]
//   kStop         []
//
// Returns the expected word count for `type`, or -1 for a type that is not
// part of the protocol.
int WireExpectedWords(WireType type);

// Checks a frame a worker sent against its assignment: only kFetchRequest,
// kBlockDone and kDrained may follow the hello; a fetch names `block` in
// [0, num_blocks) at `fetch_index` in [0, blocks_total); done, fetched and
// late-sleep counts lie in [0, blocks_total].  InvalidArgument names the violation.
// Words are unsigned, so a negative value sent as its two's complement is
// out of range too.
Status CheckWorkerFrame(const WireMessage& msg, std::int64_t num_blocks,
                        std::int64_t blocks_total);

// Writes one frame; Internal on a closed/errored peer.
Status WriteFrame(int fd, WireType type, const std::vector<std::uint64_t>& words);

// Blocking read of one frame.  A clean EOF before any byte of a frame is
// OutOfRange ("peer closed"); a mid-frame EOF, an oversized body, a length
// that is not whole words, an unknown type or a wrong word count is Internal.
Result<WireMessage> ReadFrame(int fd);

}  // namespace silod

#endif  // SILOD_SRC_RT_WIRE_H_
