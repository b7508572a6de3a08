// The silodd request protocol (docs/MODEL.md §11).
//
// One AF_UNIX stream socket per client; every message is a length-prefixed
// frame on the shared transport of common/framing.h.  Unlike the rt worker
// protocol (binary u64 words, fixed layouts), requests carry names, dataset
// specs and policy strings, so payloads are a single line of text tokens:
//
//   request:   <verb> key=value key=value ...
//   response:  <status-token> [err=<message>] key=value ...
//
// Each payload is one common/text_codec.h record: values are percent-escaped
// (space, '%', control bytes) so any string round-trips; keys are plain
// identifiers.  The encoding is deliberately greppable — `silod_client
// --verbose` prints frames verbatim — and deterministic: args serialize in
// sorted key order, so identical requests are byte-identical (useful for
// request logs and replay).
//
// Verbs: submit | complete | cancel | progress | query | stats | plan |
//        reload-policy | report | shutdown (see serve/service.h for the
//        argument contract of each).
#ifndef SILOD_SRC_SERVE_PROTO_H_
#define SILOD_SRC_SERVE_PROTO_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"
#include "src/common/text_codec.h"

namespace silod {

enum class ServeFrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct ServeRequest {
  std::string verb;
  std::map<std::string, std::string> args;

  bool Has(const std::string& key) const { return args.count(key) > 0; }
  // Missing keys are InvalidArgument naming the verb and key; malformed
  // numbers likewise, so the server never parses garbage silently.
  Result<std::string> GetString(const std::string& key) const;
  Result<std::int64_t> GetInt(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;

  std::string Encode() const;
  static Result<ServeRequest> Decode(const std::string& payload);
};

struct ServeResponse {
  StatusCode code = StatusCode::kOk;
  std::string error;  // Human-readable message when code != kOk.
  std::map<std::string, std::string> fields;

  bool ok() const { return code == StatusCode::kOk; }
  Status ToStatus() const { return ok() ? Status::Ok() : Status(code, error); }
  static ServeResponse FromStatus(const Status& status);
  static ServeResponse Ok() { return ServeResponse{}; }

  std::string Encode() const;
  static Result<ServeResponse> Decode(const std::string& payload);
};

// Frame convenience wrappers over common/framing.h.  Reading validates the
// frame type, so a response on a request channel (or vice versa) surfaces as
// an error instead of a misparse.
Status WriteRequestFrame(int fd, const ServeRequest& request);
Result<ServeRequest> ReadRequestFrame(int fd);
Status WriteResponseFrame(int fd, const ServeResponse& response);
Result<ServeResponse> ReadResponseFrame(int fd);

}  // namespace silod

#endif  // SILOD_SRC_SERVE_PROTO_H_
