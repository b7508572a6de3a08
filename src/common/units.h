// Units used throughout SiloD.
//
// The paper reports dataset sizes in decimal GB/TB and throughput in MB/s
// (e.g. ResNet-50 on ImageNet-1k: 143 GB dataset, 114 MB/s ideal IO demand).
// We follow the same decimal convention so constants in the model zoo can be
// transcribed verbatim.
//
// Conventions:
//   - Bytes      : int64_t, absolute sizes.
//   - BytesPerSec: double, throughput.  0 means "no throughput", negative is invalid.
//   - Seconds    : double, simulated time.  Simulations start at t = 0.
#ifndef SILOD_SRC_COMMON_UNITS_H_
#define SILOD_SRC_COMMON_UNITS_H_

#include <cstdint>
#include <limits>

namespace silod {

using Bytes = std::int64_t;
using BytesPerSec = double;
using Seconds = double;

inline constexpr Bytes kKB = 1000;
inline constexpr Bytes kMB = 1000 * kKB;
inline constexpr Bytes kGB = 1000 * kMB;
inline constexpr Bytes kTB = 1000 * kGB;

// Named constructors so call sites read like the paper: `GB(143)`, `MBps(114)`.
constexpr Bytes KB(double v) { return static_cast<Bytes>(v * kKB); }
constexpr Bytes MB(double v) { return static_cast<Bytes>(v * kMB); }
constexpr Bytes GB(double v) { return static_cast<Bytes>(v * kGB); }
constexpr Bytes TB(double v) { return static_cast<Bytes>(v * kTB); }

constexpr BytesPerSec MBps(double v) { return v * static_cast<double>(kMB); }
constexpr BytesPerSec GBps(double v) { return v * static_cast<double>(kGB); }
// Network egress limits in the paper are quoted in Gbps (bits).
constexpr BytesPerSec Gbps(double v) { return v * 1e9 / 8.0; }

constexpr double ToMB(Bytes b) { return static_cast<double>(b) / static_cast<double>(kMB); }
constexpr double ToGB(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGB); }
constexpr double ToTB(Bytes b) { return static_cast<double>(b) / static_cast<double>(kTB); }
constexpr double ToMBps(BytesPerSec r) { return r / static_cast<double>(kMB); }
constexpr double ToGbps(BytesPerSec r) { return r * 8.0 / 1e9; }

constexpr Seconds Minutes(double m) { return m * 60.0; }
constexpr Seconds Hours(double h) { return h * 3600.0; }
constexpr Seconds Days(double d) { return d * 86400.0; }
constexpr double ToMinutes(Seconds s) { return s / 60.0; }

inline constexpr Seconds kInfiniteTime = std::numeric_limits<double>::infinity();
inline constexpr BytesPerSec kUnlimitedRate = std::numeric_limits<double>::infinity();

}  // namespace silod

#endif  // SILOD_SRC_COMMON_UNITS_H_
