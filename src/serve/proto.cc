#include "src/serve/proto.h"

#include "src/common/framing.h"

namespace silod {
namespace {

// Status codes travel as their kebab-case names ("invalid-argument"), kept in
// sync with StatusCode by the exhaustive switch below.
const char* CodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kAlreadyExists:
      return "already-exists";
    case StatusCode::kResourceExhausted:
      return "resource-exhausted";
    case StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case StatusCode::kOutOfRange:
      return "out-of-range";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
  }
  return "internal";
}

Result<StatusCode> TokenToCode(const std::string& token) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded}) {
    if (token == CodeToken(code)) {
      return code;
    }
  }
  return Status::InvalidArgument("unknown status token '" + token + "'");
}

}  // namespace

Result<std::string> ServeRequest::GetString(const std::string& key) const {
  FieldReader reader(args, verb);
  std::string value = reader.String(key);
  if (!reader.status().ok()) {
    return reader.status();
  }
  return value;
}

Result<std::int64_t> ServeRequest::GetInt(const std::string& key) const {
  FieldReader reader(args, verb);
  const std::int64_t value = reader.Int(key);
  if (!reader.status().ok()) {
    return reader.status();
  }
  return value;
}

Result<double> ServeRequest::GetDouble(const std::string& key) const {
  FieldReader reader(args, verb);
  const double value = reader.Double(key);
  if (!reader.status().ok()) {
    return reader.status();
  }
  return value;
}

std::string ServeRequest::Encode() const { return EncodeRecord(verb, args); }

Result<ServeRequest> ServeRequest::Decode(const std::string& payload) {
  Result<TextRecord> record = DecodeRecord(payload);
  if (!record.ok()) {
    return record.status();
  }
  ServeRequest request;
  request.verb = std::move(record->head);
  request.args = std::move(record->fields);
  return request;
}

ServeResponse ServeResponse::FromStatus(const Status& status) {
  ServeResponse response;
  response.code = status.code();
  response.error = status.message();
  return response;
}

std::string ServeResponse::Encode() const {
  std::string out = CodeToken(code);
  if (!ok()) {
    AppendField(&out, "err", error);
  }
  for (const auto& [key, value] : fields) {
    AppendField(&out, key, value);
  }
  return out;
}

Result<ServeResponse> ServeResponse::Decode(const std::string& payload) {
  Result<TextRecord> record = DecodeRecord(payload);
  if (!record.ok()) {
    return record.status();
  }
  Result<StatusCode> code = TokenToCode(record->head);
  if (!code.ok()) {
    return code.status();
  }
  ServeResponse response;
  response.code = *code;
  response.fields = std::move(record->fields);
  const auto err = response.fields.find("err");
  if (err != response.fields.end()) {
    response.error = std::move(err->second);
    response.fields.erase(err);
  }
  return response;
}

Status WriteRequestFrame(int fd, const ServeRequest& request) {
  return WriteRawFrame(fd, static_cast<std::uint8_t>(ServeFrameType::kRequest), request.Encode());
}

Result<ServeRequest> ReadRequestFrame(int fd) {
  Result<RawFrame> raw = ReadRawFrame(fd);
  if (!raw.ok()) {
    return raw.status();
  }
  if (raw->type != static_cast<std::uint8_t>(ServeFrameType::kRequest)) {
    return Status::Internal("expected a request frame, got type " + std::to_string(raw->type));
  }
  return ServeRequest::Decode(raw->payload);
}

Status WriteResponseFrame(int fd, const ServeResponse& response) {
  return WriteRawFrame(fd, static_cast<std::uint8_t>(ServeFrameType::kResponse),
                       response.Encode());
}

Result<ServeResponse> ReadResponseFrame(int fd) {
  Result<RawFrame> raw = ReadRawFrame(fd);
  if (!raw.ok()) {
    return raw.status();
  }
  if (raw->type != static_cast<std::uint8_t>(ServeFrameType::kResponse)) {
    return Status::Internal("expected a response frame, got type " + std::to_string(raw->type));
  }
  return ServeResponse::Decode(raw->payload);
}

}  // namespace silod
