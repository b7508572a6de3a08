#include "tracer.h"

#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace perfbench {

int Tracer::Begin(const char* name) {
  const int id = Record(name, NowNs(), 0);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  SILOD_CHECK(!open_.empty() && open_.back() == id) << "spans must nest";
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

int Tracer::Record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, start_ns, end_ns, open_.empty() ? -1 : open_.back()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::Seconds(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

std::vector<double> Tracer::Micros(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(s.micros());
    }
  }
  return out;
}

double Tracer::TotalSeconds(const char* name) const {
  double total = 0;
  for (const double s : Seconds(name)) {
    total += s;
  }
  return total;
}

double Tracer::SelfSeconds(const char* name) const {
  std::vector<bool> selected(spans_.size(), false);
  double self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::strcmp(s.name, name) == 0) {
      selected[i] = true;
      self += s.seconds();
    } else if (s.parent >= 0 && selected[static_cast<std::size_t>(s.parent)]) {
      self -= s.seconds();
    }
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d}\n",
                 i, s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
