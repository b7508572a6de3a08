#include "src/rt/wire.h"

#include <cstring>

#include "src/common/framing.h"
#include "src/common/logging.h"

namespace silod {
namespace {

// Frames are tiny; anything larger is a framing bug, not a real message.
constexpr std::uint32_t kMaxBody = 64 * 1024;

}  // namespace

const char* WireTypeName(WireType type) {
  switch (type) {
    case WireType::kHello:
      return "hello";
    case WireType::kAssign:
      return "assign";
    case WireType::kFetchRequest:
      return "fetch-request";
    case WireType::kFetchReply:
      return "fetch-reply";
    case WireType::kBlockDone:
      return "block-done";
    case WireType::kDrained:
      return "drained";
    case WireType::kStop:
      return "stop";
  }
  return "unknown";
}

double WireMessage::AsDouble(std::size_t i) const {
  SILOD_CHECK(i < words.size()) << "wire payload index out of range";
  double d;
  std::memcpy(&d, &words[i], sizeof(d));
  return d;
}

std::uint64_t WireMessage::FromDouble(double d) {
  std::uint64_t v;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

int WireExpectedWords(WireType type) {
  switch (type) {
    case WireType::kHello:
      return 1;
    case WireType::kAssign:
      return 8;
    case WireType::kFetchRequest:
      return 2;
    case WireType::kFetchReply:
      return 2;
    case WireType::kBlockDone:
      return 1;
    case WireType::kDrained:
      return 3;
    case WireType::kStop:
      return 0;
  }
  return -1;
}

Status WriteFrame(int fd, WireType type, const std::vector<std::uint64_t>& words) {
  // The transport loop (length prefix, EINTR, MSG_NOSIGNAL) lives in
  // common/framing.h, shared with the silodd protocol; this layer only packs
  // the payload words.
  std::string payload;
  payload.resize(8 * words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    PutU64(reinterpret_cast<std::uint8_t*>(payload.data()) + 8 * i, words[i]);
  }
  return WriteRawFrame(fd, static_cast<std::uint8_t>(type), payload, kMaxBody);
}

Result<WireMessage> ReadFrame(int fd) {
  Result<RawFrame> raw = ReadRawFrame(fd, kMaxBody);
  if (!raw.ok()) {
    return raw.status();
  }
  if (raw->payload.size() % 8 != 0) {
    return Status::Internal("wire read: malformed frame length " +
                            std::to_string(raw->payload.size() + 1));
  }
  WireMessage msg;
  msg.type = static_cast<WireType>(raw->type);
  const int expected = WireExpectedWords(msg.type);
  if (expected < 0) {
    return Status::Internal("wire read: unknown message type " + std::to_string(raw->type));
  }
  const std::size_t count = raw->payload.size() / 8;
  if (count != static_cast<std::size_t>(expected)) {
    return Status::Internal(std::string("wire read: ") + WireTypeName(msg.type) + " carries " +
                            std::to_string(count) + " words, want " + std::to_string(expected));
  }
  msg.words.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.words.push_back(GetU64(reinterpret_cast<const std::uint8_t*>(raw->payload.data()) + 8 * i));
  }
  return msg;
}

Status CheckWorkerFrame(const WireMessage& msg, std::int64_t num_blocks,
                        std::int64_t blocks_total) {
  const auto below = [](std::uint64_t v, std::int64_t bound) {
    return bound > 0 && v < static_cast<std::uint64_t>(bound);
  };
  const auto at_most = [](std::uint64_t v, std::int64_t bound) {
    return bound >= 0 && v <= static_cast<std::uint64_t>(bound);
  };
  const auto bad = [&](const char* what, std::uint64_t v) {
    return Status::InvalidArgument(std::string("worker ") + WireTypeName(msg.type) + ": " + what +
                                   " " + std::to_string(v) + " out of range");
  };
  if (static_cast<int>(msg.words.size()) != WireExpectedWords(msg.type)) {
    return Status::InvalidArgument(std::string("worker ") + WireTypeName(msg.type) +
                                   ": wrong word count");
  }
  switch (msg.type) {
    case WireType::kFetchRequest:
      if (!below(msg.words[0], blocks_total)) {
        return bad("fetch_index", msg.words[0]);
      }
      if (!below(msg.words[1], num_blocks)) {
        return bad("block", msg.words[1]);
      }
      return Status::Ok();
    case WireType::kBlockDone:
      return at_most(msg.words[0], blocks_total) ? Status::Ok() : bad("blocks_done", msg.words[0]);
    case WireType::kDrained:
      if (!at_most(msg.words[0], blocks_total)) {
        return bad("blocks_done", msg.words[0]);
      }
      if (!at_most(msg.words[1], blocks_total)) {
        return bad("blocks_fetched", msg.words[1]);
      }
      if (!at_most(msg.words[2], blocks_total)) {
        return bad("late_sleeps", msg.words[2]);
      }
      return Status::Ok();
    default:
      return Status::InvalidArgument(std::string("worker sent unexpected ") +
                                     WireTypeName(msg.type));
  }
}

}  // namespace silod
