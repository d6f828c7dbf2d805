#ifndef ECRINT_SERVICE_RESPONSE_H_
#define ECRINT_SERVICE_RESPONSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ecrint::service {

// What a client sees when the service refuses or fails a request. The six
// codes partition every failure the service plane can produce:
//   OVERLOADED  - admission control shed the request (queue at capacity);
//                 retry with backoff, the project state is untouched.
//   TIMEOUT     - the request's deadline expired before execution started;
//                 the project state is untouched.
//   CONFLICT    - the engine rejected the mutation as contradictory (the
//                 paper's Screen-9 case); message carries the derivation.
//   BAD_REQUEST - anything else the caller got wrong: unknown verb or
//                 session, parse errors, missing schemas/attributes,
//                 operations out of phase order, a reply too large to send.
//   UNAVAILABLE - the project's journal device failed, so mutations are
//                 refused (degraded read-only mode); nothing was applied.
//                 Carries a retry-after hint; reads keep working against
//                 the last published snapshot.
//   NOT_LEADER  - this node is a read replica: mutations must go to the
//                 leader, whose address rides along in `leader`. Reads keep
//                 working here. Appended last so existing binary status
//                 bytes are unchanged.
enum class ServiceErrorCode {
  kOverloaded,
  kTimeout,
  kBadRequest,
  kConflict,
  kUnavailable,
  kNotLeader,
};

// Wire name of a code ("OVERLOADED", "TIMEOUT", ...).
inline const char* ServiceErrorCodeName(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kOverloaded:
      return "OVERLOADED";
    case ServiceErrorCode::kTimeout:
      return "TIMEOUT";
    case ServiceErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ServiceErrorCode::kConflict:
      return "CONFLICT";
    case ServiceErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ServiceErrorCode::kNotLeader:
      return "NOT_LEADER";
  }
  return "BAD_REQUEST";
}

struct ServiceError {
  ServiceErrorCode code = ServiceErrorCode::kBadRequest;
  std::string message;
  // For UNAVAILABLE: how long the client should wait before retrying
  // (0 = no hint).
  int64_t retry_after_ms = 0;
  // For NOT_LEADER: where writes should go (host:port).
  std::string leader;

  ServiceError() = default;
  ServiceError(ServiceErrorCode code_in, std::string message_in,
               int64_t retry_after_ms_in = 0, std::string leader_in = {})
      : code(code_in),
        message(std::move(message_in)),
        retry_after_ms(retry_after_ms_in),
        leader(std::move(leader_in)) {}
};

// Maps an engine/library Status onto the service error vocabulary:
// kConflict -> CONFLICT, everything else -> BAD_REQUEST (admission codes
// never come from a Status).
inline ServiceError ErrorFromStatus(const Status& status) {
  return {status.code() == StatusCode::kConflict
              ? ServiceErrorCode::kConflict
              : ServiceErrorCode::kBadRequest,
          status.ToString()};
}

struct ServiceResponse {
  std::optional<ServiceError> error;
  std::vector<std::string> lines;  // payload, one wire line each

  bool ok() const { return !error.has_value(); }
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_RESPONSE_H_
