// In-memory spans recorded by the benchmark around its calls into each layer.
//
// A span is (name, start, end, parent).  Spans live in memory for the whole
// traced run and are written out once when it ends; per-layer metrics are
// derived from them.  A null Tracer* means "not tracing": ScopedSpan then
// does nothing, so untraced runs pay one branch per boundary.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Span {
  const char* name = "";  // A string literal; spans never own their names.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // Index into Tracer::spans(), -1 for a root.

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double micros() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

class Tracer {
 public:
  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);
  // Records an already-measured span under the innermost open one.
  int Record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (seconds / microseconds) of every span called `name`.
  std::vector<double> Seconds(const char* name) const;
  std::vector<double> Micros(const char* name) const;
  double TotalSeconds(const char* name) const;
  // Summed duration of the `name` spans minus the part covered by their
  // direct children.
  double SelfSeconds(const char* name) const;

  // One JSON object per line: {"id","name","start_ns","end_ns","parent"}.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
