#ifndef ECRINT_SERVICE_ROUTER_H_
#define ECRINT_SERVICE_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace ecrint::service {

// Per-connection protocol state: which session the connection is bound to
// (set by `open`), the connection's relative deadline override (set by
// `deadline`), and the negotiated protocol version (set by `proto`). One
// transport connection owns one RouterSession and issues requests on it
// one at a time.
struct RouterSession {
  std::string session_id;
  // Relative deadline applied to subsequent requests; unset = server
  // default. `deadline 0` makes every request expire immediately (the
  // deterministic TIMEOUT path tests use with a ManualClock).
  std::optional<int64_t> deadline_override_ns;
  // kProtocolTextVersion until the client sends `proto 2`; after the ok
  // reply to that verb both sides speak the binary framing and the
  // transport must feed frames to HandleFrame instead of lines to
  // HandleLine.
  int protocol_version = kProtocolTextVersion;
};

// Translates protocol requests into IntegrationService calls. Text and
// binary are two framings of one request path: a text line parses into the
// same BinaryRequest (verb, args) a binary frame decodes to, and one
// handler serves it for both — the session verbs, `ping`, the session
// check, `promote` / `demote`, building the ServiceCommand and the call
// into the service. HandleLine and HandleFrame only decode and encode.
// The router is stateless per request and thread-safe: all per-connection
// state lives in the RouterSession the transport passes in, all shared
// state (the per-project reply memo included) in the service.
//
// Verbs (see docs/FORMATS.md for the grammar):
//   open [project]              bind this connection to a session
//   close                       end the session
//   deadline <ms>|default       set/reset the connection's deadline
//   proto <1|2>                 negotiate the wire protocol version
//   define <ddl>                (write) parse DDL into the catalog
//   equiv <a.b.c> <d.e.f>       (write) declare attributes equivalent
//   assert <s.o> <0-5> <s.o>    (write) record a domain-relation assertion
//   integrate [schema ...]      (write) integrate; returns the outline
//   export                      (write lock) serialize the project
//   rank <s1> <s2> [rel] [zero] (read) Screen-8 ranked pairs
//   suggest <s1> <s2> [thresh]  (read) heuristic equivalence proposals
//   translate [components] <s.o> [a,b,...]   (read) request translation
//   outline                     (read) integrated-schema outline
//   metrics                     (read) MetricsJson dump
//   ping                        liveness, no session required
//   promote                     (admin) lead the project at a bumped epoch
//   demote <epoch> <addr>       (admin) fence this node behind a new leader
class RequestRouter {
 public:
  explicit RequestRouter(IntegrationService* service) : service_(service) {}

  // Handles one text request line; returns the framed response
  // (FormatResponse framing, ready to write to the wire).
  std::string HandleLine(const std::string& line, RouterSession* session);

  // Handles one binary frame BODY (the bytes after the length prefix —
  // what ExtractFrame hands back) and returns a complete response frame
  // (length prefix included). A request frame yields a response frame; a
  // batch frame yields a batch response frame with one entry per item, in
  // order. Session verbs (open / close / deadline / proto) are rejected
  // inside batches: they mutate connection state mid-pipeline.
  std::string HandleFrame(std::string_view body, RouterSession* session);

  // Incremental transport feed: the event-driven front end calls this with
  // whatever bytes arrived, however they were fragmented. Every complete
  // request buffered in `*input` is handled (text lines or binary frames,
  // switching modes when a response renegotiates the protocol) and its
  // framed response appended to `*output`; consumed bytes are erased from
  // `*input` (a partial trailing line/frame stays for the next call).
  // Responses are byte-identical to whole-message delivery.
  enum class FeedOutcome {
    // Everything complete was handled; read more bytes from the peer.
    kNeedMore,
    // A replication subscribe frame (0x03): `*handoff` holds the frame
    // body; the transport moves this connection onto the streaming path
    // after flushing `*output`.
    kHandoff,
    // Unrecoverable protocol error (malformed frame, oversized request
    // line): a refusal was appended to `*output`; flush it, then close.
    kClose,
  };
  FeedOutcome Feed(std::string* input, RouterSession* session,
                   std::string* output, std::string* handoff);

  IntegrationService* service() { return service_; }

 private:
  // The one handler: serves a parsed request from either framing and
  // returns its reply framed for `protocol_version` (the framing the
  // request arrived in). `text_refusal` is an argument error only a text
  // line can make (an unknown verb name, define's escaped DDL); it is
  // reported after the session check, where BuildCommand's refusal would
  // be, so both framings refuse in the same order.
  std::string Handle(const BinaryRequest& request,
                     const std::string& text_refusal, RouterSession* session,
                     int protocol_version);

  // A batch frame's items: session and failover verbs are refused in
  // place, the rest run as ONE pipelined ExecuteBatch.
  std::vector<ServiceResponse> HandleBatch(
      const std::vector<BinaryRequest>& items, RouterSession* session);

  IntegrationService* service_;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_ROUTER_H_
