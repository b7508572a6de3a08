#include "src/serve/journal.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "src/common/framing.h"
#include "src/common/logging.h"
#include "src/common/text_codec.h"

namespace silod {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::string(strerror(errno)));
}

Status WriteAllFd(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::write(fd, data + sent, len - sent);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("journal write");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// fsync the directory holding `path` so a rename into it is durable.
Status SyncParentDir(const std::string& path) {
  std::string copy = path;
  const char* dir = dirname(copy.data());
  const int fd = ::open(dir, O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return ErrnoStatus(std::string("open dir '") + dir + "'");
  }
  Status st = Status::Ok();
  if (::fsync(fd) != 0) {
    st = ErrnoStatus(std::string("fsync dir '") + dir + "'");
  }
  ::close(fd);
  return st;
}

}  // namespace

const char* JournalSyncModeName(JournalSyncMode mode) {
  switch (mode) {
    case JournalSyncMode::kAlways:
      return "always";
    case JournalSyncMode::kBatch:
      return "batch";
    case JournalSyncMode::kNone:
      return "none";
  }
  return "unknown";
}

Status ParseJournalSyncSpec(const std::string& spec, JournalOptions* options) {
  if (spec == "always") {
    options->sync = JournalSyncMode::kAlways;
    return Status::Ok();
  }
  if (spec == "none") {
    options->sync = JournalSyncMode::kNone;
    return Status::Ok();
  }
  if (spec.rfind("batch:", 0) == 0) {
    const std::string count = spec.substr(6);
    const Result<std::int64_t> n = ParseInt(count, 1, UINT32_MAX);
    if (!n.ok()) {
      return Status::InvalidArgument("bad --journal-sync batch count '" + count +
                                     "' (want batch:<N>, N >= 1)");
    }
    options->sync = JournalSyncMode::kBatch;
    options->batch_frames = static_cast<std::uint32_t>(*n);
    return Status::Ok();
  }
  return Status::InvalidArgument("bad --journal-sync '" + spec +
                                 "' (want always | batch:<N> | none)");
}

std::string EncodeJournalRecord(JournalRecordType type, const std::string& payload) {
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body += payload;
  std::string record;
  record.resize(8 + body.size());
  auto* bytes = reinterpret_cast<std::uint8_t*>(record.data());
  PutU32(bytes, static_cast<std::uint32_t>(body.size()));
  PutU32(bytes + 4, Crc32(body.data(), body.size()));
  std::memcpy(record.data() + 8, body.data(), body.size());
  return record;
}

Journal::Journal(JournalOptions options, int fd, std::uint64_t size)
    : options_(std::move(options)), fd_(fd), size_bytes_(size) {}

Journal::~Journal() {
  if (fd_ >= 0) {
    // Best-effort: graceful shutdown already called Sync(); this only covers
    // error paths, where losing the unsynced tail is the documented contract.
    if (options_.sync != JournalSyncMode::kNone && unsynced_ > 0) {
      ::fdatasync(fd_);
    }
    ::close(fd_);
  }
}

Result<std::unique_ptr<Journal>> Journal::Open(const JournalOptions& options, JournalScan* scan) {
  SILOD_CHECK(scan != nullptr) << "scan output required";
  *scan = JournalScan{};
  if (options.path.empty()) {
    return Status::InvalidArgument("journal path must not be empty");
  }
  const int fd = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open journal '" + options.path + "'");
  }

  // Read the whole file; journals are bounded by compaction.
  std::string data;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        const Status st = ErrnoStatus("read journal '" + options.path + "'");
        ::close(fd);
        return st;
      }
      data.append(buf, static_cast<std::size_t>(n));
    }
  }

  // Scan: accept the longest valid prefix; truncate at the first bad record.
  std::size_t offset = 0;
  while (offset < data.size()) {
    if (data.size() - offset < 8) {
      break;  // Torn header.
    }
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data() + offset);
    const std::uint32_t body_len = GetU32(bytes);
    const std::uint32_t crc = GetU32(bytes + 4);
    if (body_len < 1 || body_len > kMaxJournalRecordBytes ||
        data.size() - offset - 8 < body_len) {
      break;  // Absurd length or torn body.
    }
    const char* body = data.data() + offset + 8;
    if (Crc32(body, body_len) != crc) {
      break;  // Corrupt record.
    }
    const auto type = static_cast<JournalRecordType>(static_cast<std::uint8_t>(body[0]));
    if (type != JournalRecordType::kRequest && type != JournalRecordType::kCheckpoint) {
      break;  // Unknown type: a future version's record; stop before it.
    }
    std::string payload(body + 1, body_len - 1);
    if (type == JournalRecordType::kCheckpoint) {
      scan->has_checkpoint = true;
      scan->checkpoint = std::move(payload);
      scan->requests.clear();  // Everything before the checkpoint is folded in.
    } else {
      scan->requests.push_back(std::move(payload));
    }
    ++scan->records;
    offset += 8 + body_len;
  }
  scan->dropped_bytes = data.size() - offset;
  if (scan->dropped_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      const Status st = ErrnoStatus("truncate torn tail of '" + options.path + "'");
      ::close(fd);
      return st;
    }
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    const Status st = ErrnoStatus("seek journal '" + options.path + "'");
    ::close(fd);
    return st;
  }
  return std::unique_ptr<Journal>(new Journal(options, fd, offset));
}

Status Journal::Append(JournalRecordType type, const std::string& payload) {
  const std::string record = EncodeJournalRecord(type, payload);
  if (record.size() - 8 > kMaxJournalRecordBytes) {
    return Status::InvalidArgument("journal record of " + std::to_string(record.size() - 8) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxJournalRecordBytes) + "-byte cap");
  }
  if (const Status st = WriteAllFd(fd_, record.data(), record.size()); !st.ok()) {
    return st;
  }
  size_bytes_ += record.size();
  ++appended_records_;
  ++unsynced_;
  return MaybeSync();
}

Status Journal::AppendRequest(const std::string& payload) {
  return Append(JournalRecordType::kRequest, payload);
}

Status Journal::MaybeSync() {
  switch (options_.sync) {
    case JournalSyncMode::kNone:
      unsynced_ = 0;
      return Status::Ok();
    case JournalSyncMode::kAlways:
      return Sync();
    case JournalSyncMode::kBatch:
      if (unsynced_ >= options_.batch_frames) {
        return Sync();
      }
      return Status::Ok();
  }
  return Status::Ok();
}

Status Journal::Sync() {
  if (unsynced_ == 0) {
    return Status::Ok();
  }
  if (::fdatasync(fd_) != 0) {
    return ErrnoStatus("fdatasync journal '" + options_.path + "'");
  }
  unsynced_ = 0;
  ++syncs_;
  return Status::Ok();
}

Status Journal::Compact(const std::string& checkpoint_payload) {
  const std::string tmp_path = options_.path + ".tmp";
  const int tmp = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp < 0) {
    return ErrnoStatus("open '" + tmp_path + "'");
  }
  const std::string record = EncodeJournalRecord(JournalRecordType::kCheckpoint,
                                                 checkpoint_payload);
  Status st = WriteAllFd(tmp, record.data(), record.size());
  if (st.ok() && ::fdatasync(tmp) != 0) {
    st = ErrnoStatus("fdatasync '" + tmp_path + "'");
  }
  ::close(tmp);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  if (::rename(tmp_path.c_str(), options_.path.c_str()) != 0) {
    const Status rn = ErrnoStatus("rename '" + tmp_path + "' over '" + options_.path + "'");
    ::unlink(tmp_path.c_str());
    return rn;
  }
  if (const Status dir = SyncParentDir(options_.path); !dir.ok()) {
    return dir;
  }
  // Swap the append fd to the compacted file; the old fd points at the
  // unlinked pre-compaction inode.
  const int fd = ::open(options_.path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return ErrnoStatus("reopen compacted journal '" + options_.path + "'");
  }
  ::close(fd_);
  fd_ = fd;
  size_bytes_ = record.size();
  unsynced_ = 0;
  ++compactions_;
  return Status::Ok();
}

}  // namespace silod
