#include "src/storage/inmem_remote.h"

#include <chrono>
#include <thread>

#include "src/common/logging.h"

namespace silod {
namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

InMemRemoteStore::InMemRemoteStore(BytesPerSec egress_limit, Bytes burst)
    : bucket_(egress_limit, burst), egress_limit_(egress_limit), start_ns_(NowNs()) {}

void InMemRemoteStore::SetFault(double rate_factor, double error_rate) {
  SILOD_CHECK(rate_factor > 0 && rate_factor <= 1) << "rate factor out of (0, 1]";
  SILOD_CHECK(error_rate >= 0 && error_rate < 1) << "error rate out of [0, 1)";
  std::lock_guard<std::mutex> lock(mu_);
  const Seconds now = static_cast<double>(NowNs() - start_ns_) * 1e-9;
  // SetRate settles any in-flight reservation first, so degrading mid-read
  // never double-credits tokens.
  bucket_.SetRate(egress_limit_ * rate_factor, now);
  error_rate_ = error_rate;
}

void InMemRemoteStore::RegisterDataset(const Dataset& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  datasets_[dataset.id] = dataset;
}

Result<std::vector<std::uint8_t>> InMemRemoteStore::TryReadBlock(DatasetId dataset,
                                                                 std::int64_t block) {
  Bytes size = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = datasets_.find(dataset);
    SILOD_CHECK(it != datasets_.end()) << "dataset " << dataset << " not registered";
    size = it->second.BlockBytes(block);

    // An injected transient failure aborts before booking tokens: a failed
    // request transfers no bytes.
    if (error_rate_ > 0 && rng_.NextDouble() < error_rate_) {
      transient_errors_.fetch_add(1);
      return Status::Internal("transient remote read error (injected)");
    }

    const Seconds now = static_cast<double>(NowNs() - start_ns_) * 1e-9;
    const Seconds admit = bucket_.TimeToAdmit(size, now);
    // Book the tokens under the lock so concurrent readers cannot double-spend
    // the reservation, then sleep out the delay without holding the lock.
    bucket_.Consume(size, admit);
    lock.unlock();
    if (admit > now) {
      std::this_thread::sleep_for(std::chrono::duration<double>(admit - now));
    }
  }

  // Deterministic payload: 8-byte words from a mixed counter.
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  const std::uint64_t base = (static_cast<std::uint64_t>(dataset) << 32) ^
                             static_cast<std::uint64_t>(block) * 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    const std::uint64_t w = Mix64(base + i / 8);
    for (std::size_t j = 0; j < 8 && i + j < data.size(); ++j) {
      data[i + j] = static_cast<std::uint8_t>(w >> (8 * j));
    }
  }
  return data;
}

std::uint64_t InMemRemoteStore::ExpectedChecksum(DatasetId dataset, std::int64_t block,
                                                 Bytes size) {
  const std::uint64_t base = (static_cast<std::uint64_t>(dataset) << 32) ^
                             static_cast<std::uint64_t>(block) * 0x9E3779B97F4A7C15ULL;
  std::uint64_t sum = 0;
  for (Bytes i = 0; i < size; i += 8) {
    const std::uint64_t w = Mix64(static_cast<std::uint64_t>(base + i / 8));
    if (i + 8 <= size) {
      sum ^= w;
    } else {
      std::uint64_t partial = 0;
      for (Bytes j = 0; i + j < size; ++j) {
        partial |= ((w >> (8 * j)) & 0xFF) << (8 * j);
      }
      sum ^= partial;
    }
  }
  return sum;
}

std::uint64_t InMemRemoteStore::Checksum(const std::vector<std::uint8_t>& data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 8 && i + j < data.size(); ++j) {
      w |= static_cast<std::uint64_t>(data[i + j]) << (8 * j);
    }
    sum ^= w;
  }
  return sum;
}

}  // namespace silod
