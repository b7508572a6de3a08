// One FNV-1a (64-bit) hasher behind every pinned digest: scheduler plans
// (PlanDigest), silodd's state (ServiceState::StateDigest) and simulation
// results (ResultDigest).  Header-inline so a digest over a large state pays
// no call per byte.
//
// Every feed is byte-exact and independent of the host: integers go in
// least significant byte first, doubles as their bit pattern (so -0.0 and
// 0.0 differ), strings with their length first.  A committed digest moves
// only when what it hashes does.
#ifndef SILOD_SRC_COMMON_DIGEST_H_
#define SILOD_SRC_COMMON_DIGEST_H_

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace silod {

class Fnv1a64 {
 public:
  // Feeds `size` raw bytes in memory order.
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      Byte(p[i]);
    }
  }
  // Feeds the value's eight bytes, least significant first.
  void U64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  // Feeds the bit pattern as a U64.
  void Double(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  // Feeds the length as a U64, then the characters.
  void String(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  std::uint64_t hash() const { return hash_; }

 private:
  void Byte(unsigned char b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Sixteen lowercase hex digits, zero-padded: the form every report, bench
// file and protocol field prints a digest in.
inline std::string FormatDigest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

}  // namespace silod

#endif  // SILOD_SRC_COMMON_DIGEST_H_
