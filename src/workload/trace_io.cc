#include "src/workload/trace_io.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/common/text_codec.h"

namespace silod {
namespace {

constexpr const char* kHeader =
    "id,name,model,gpus,dataset,dataset_bytes,block_bytes,ideal_io_bps,total_bytes,"
    "submit_seconds,regular,curriculum,pacing_start,pacing_alpha,pacing_step";

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

}  // namespace

std::string TraceToCsv(const Trace& trace) {
  std::string out = std::string(kHeader) + "\n";
  char buf[512];
  for (const JobSpec& job : trace.jobs) {
    const Dataset& d = trace.catalog.Get(job.dataset);
    std::snprintf(buf, sizeof(buf),
                  "%d,%s,%s,%d,%s,%" PRId64 ",%" PRId64 ",%.6f,%" PRId64
                  ",%.6f,%d,%d,%.6f,%.6f,%" PRId64 "\n",
                  job.id, job.name.c_str(), job.model.c_str(), job.num_gpus, d.name.c_str(),
                  d.size, d.block_size, job.ideal_io, job.total_bytes, job.submit_time,
                  job.regular ? 1 : 0, job.curriculum ? 1 : 0,
                  job.curriculum_params.starting_percent, job.curriculum_params.alpha,
                  job.curriculum_params.step);
    out += buf;
  }
  return out;
}

Result<Trace> TraceFromCsv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty trace file");
  }
  // Tolerate a trailing \r from Windows editors.
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.pop_back();
  }
  if (line != kHeader) {
    return Status::InvalidArgument("unexpected trace header: " + line);
  }

  const std::vector<std::string_view> columns = SplitList(kHeader, ',');
  Trace trace;
  std::map<std::string, DatasetId> datasets;
  int row = 1;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != 15) {
      return Status::InvalidArgument("row " + std::to_string(row) + ": expected 15 fields, got " +
                                     std::to_string(f.size()));
    }
    // Every numeric column parses strictly; an error names the row and column.
    Status bad;
    const auto fail = [&](int col, const Status& st) {
      if (bad.ok()) {
        bad = Status::InvalidArgument("row " + std::to_string(row) + " column " +
                                      std::string(columns[static_cast<std::size_t>(col)]) + ": " +
                                      st.message());
      }
    };
    const auto int_col = [&](int col, std::int64_t min, std::int64_t max) -> std::int64_t {
      const Result<std::int64_t> v = ParseInt(f[static_cast<std::size_t>(col)], min, max);
      if (!v.ok()) {
        fail(col, v.status());
        return 0;
      }
      return *v;
    };
    const auto double_col = [&](int col) -> double {
      const Result<double> v = ParseDouble(f[static_cast<std::size_t>(col)]);
      if (!v.ok()) {
        fail(col, v.status());
        return 0;
      }
      return *v;
    };
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const Bytes dataset_bytes = int_col(5, 1, kMax);
    const Bytes block_bytes = int_col(6, 1, kMax);
    JobSpec job;
    job.id = static_cast<JobId>(trace.jobs.size());
    job.name = f[1];
    job.model = f[2];
    job.num_gpus = static_cast<int>(int_col(3, 1, std::numeric_limits<int>::max()));
    job.ideal_io = double_col(7);
    job.total_bytes = int_col(8, 1, kMax);
    job.submit_time = double_col(9);
    job.regular = f[10] == "1";
    job.curriculum = f[11] == "1";
    job.curriculum_params.starting_percent = double_col(12);
    job.curriculum_params.alpha = double_col(13);
    job.curriculum_params.step = int_col(14, std::numeric_limits<std::int64_t>::min(), kMax);
    job.step_data_size = MB(4) * std::max(1, job.num_gpus);
    if (!std::isfinite(job.ideal_io) || job.ideal_io <= 0) {
      fail(7, Status::InvalidArgument("must be finite and positive"));
    }
    if (!std::isfinite(job.submit_time) || job.submit_time < 0) {
      fail(9, Status::InvalidArgument("must be finite and non-negative"));
    }
    if (!bad.ok()) {
      return bad;
    }

    const std::string& dataset_name = f[4];
    auto it = datasets.find(dataset_name);
    if (it == datasets.end()) {
      job.dataset = trace.catalog.Add(dataset_name, dataset_bytes, block_bytes);
      datasets.emplace(dataset_name, job.dataset);
    } else {
      job.dataset = it->second;
      const Dataset& existing = trace.catalog.Get(job.dataset);
      if (existing.size != dataset_bytes || existing.block_size != block_bytes) {
        return Status::InvalidArgument("row " + std::to_string(row) + ": dataset '" +
                                       dataset_name + "' redefined with different sizes");
      }
    }
    trace.jobs.push_back(std::move(job));
  }
  if (trace.jobs.empty()) {
    return Status::InvalidArgument("trace has no jobs");
  }
  return trace;
}

Status WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << TraceToCsv(trace);
  return out.good() ? Status::Ok() : Status::Internal("write to " + path + " failed");
}

Result<Trace> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TraceFromCsv(buffer.str());
}

}  // namespace silod
