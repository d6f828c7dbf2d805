#ifndef ECRINT_SERVICE_PROTOCOL_H_
#define ECRINT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "service/response.h"

namespace ecrint::service {

// The newline-delimited text protocol (see docs/FORMATS.md for the full
// grammar). One request is one line:
//
//   request  = verb *( SP arg ) LF
//
// Multi-line arguments (DDL text) travel escaped: "\n" for newline, "\t"
// for tab, "\\" for backslash; spaces inside an escaped tail argument do
// NOT split it (the router knows which verbs take a tail). A response is a
// status line, zero or more payload lines, and a lone "." terminator:
//
//   response = ( "ok" / "err" SP code SP message ) LF
//              *( payload-line LF )
//              "." LF
//
// Payload lines are escaped the same way (so they never contain a raw
// newline) and dot-stuffed: a payload line starting with "." is sent with
// the dot doubled, SMTP-style, so the terminator stays unambiguous.
//
// An UNAVAILABLE error line carries a machine-readable retry hint between
// the code and the message, and a NOT_LEADER line the leader's address:
//
//   err UNAVAILABLE retry-after-ms=1000 project is read-only (...)
//   err NOT_LEADER leader=127.0.0.1:4321 read replica: writes go to (...)

// Hard ceiling on one request line (verb + args + newline). The largest
// legitimate request is a `define` whose escaped DDL rides in the tail;
// 1 MiB of DDL is orders of magnitude beyond any real schema, so anything
// bigger is a protocol error (or an attack) and must not grow the read
// buffer without bound.
inline constexpr size_t kMaxRequestLineBytes = 1u << 20;
// Same ceiling for one framed response a client will buffer (exports are
// the largest frames; they are bounded by the DDL that defined them).
inline constexpr size_t kMaxResponseFrameBytes = 8u << 20;

// Rejects a request line the server must not process: longer than
// kMaxRequestLineBytes or containing a NUL byte (no legitimate verb or
// escaped argument contains one; C-string handling downstream would
// silently truncate).
Status ValidateRequestLine(std::string_view line);

// Escapes newline, tab, and backslash.
std::string EscapeField(std::string_view text);

// Reverses EscapeField. Unknown escape sequences are an error.
Result<std::string> UnescapeField(std::string_view text);

// Splits a request line into whitespace-separated tokens (no unescaping;
// callers unescape tail arguments per verb).
std::vector<std::string> Tokenize(std::string_view line);

// Renders a ServiceResponse in wire framing (status line, escaped and
// dot-stuffed payload lines, "." terminator). Every line ends with '\n'.
std::string FormatResponse(const ServiceResponse& response);

// Frames one reply for the server to send: FormatResponse for
// kProtocolTextVersion, EncodeBinaryResponse for kProtocolBinaryVersion.
// A reply its peer would refuse (text over kMaxResponseFrameBytes, a frame
// body over kMaxBinaryFrameBytes) is replaced by BAD_REQUEST naming its
// size and the limit. Every single reply the server sends is framed here.
std::string EncodeReply(const ServiceResponse& response,
                        int protocol_version);

// Parses one framed response back into a ServiceResponse — the client-side
// inverse of FormatResponse, used by tests and the loadgen. `wire` must
// contain exactly one complete response.
Result<ServiceResponse> ParseResponse(std::string_view wire);

// ---------------------------------------------------------------------------
// Binary framing (protocol v2).
// ---------------------------------------------------------------------------
//
// Negotiated per connection with the text verb `proto 2` (the server
// replies in text, then both sides switch). Every frame is length-prefixed
// — no escaping, no dot-stuffing, no scanning for terminators:
//
//   frame    = varint(len) body                  ; len = |body|
//   body     = type:u8 rest
//   type 0x01 (request)        rest = req
//   type 0x02 (batch request)  rest = varint(n) n*req
//   type 0x81 (response)       rest = resp
//   type 0x82 (batch response) rest = varint(n) n*resp
//   req      = verb:u8 varint(argc) argc*lpstr
//   resp     = status:u8
//              status!=0: varint(retry-after-ms) lpstr(message)
//              status==NOT_LEADER+1: lpstr(leader)
//              varint(nlines) nlines*lpstr
//   lpstr    = varint(len) bytes
//
// varint is LEB128 (7 bits per byte, little-endian, high bit = continue),
// at most 10 bytes. status 0 is ok; otherwise ServiceErrorCode + 1.
// Payload lines travel as raw bytes — a line may contain anything except
// what the verb itself forbids. Full grammar in docs/FORMATS.md.

inline constexpr int kProtocolTextVersion = 1;
inline constexpr int kProtocolBinaryVersion = 2;

// Frame body ceiling, both directions (mirrors kMaxResponseFrameBytes).
inline constexpr size_t kMaxBinaryFrameBytes = 8u << 20;
// Requests per batch frame: bounds the write-lock hold time and the memory
// a single frame can pin.
inline constexpr size_t kMaxBatchItems = 1024;

inline constexpr uint8_t kFrameRequest = 0x01;
inline constexpr uint8_t kFrameBatchRequest = 0x02;
inline constexpr uint8_t kFrameResponse = 0x81;
inline constexpr uint8_t kFrameBatchResponse = 0x82;

// Replication frames (src/service/replication.{h,cc}), riding the same
// varint length prefix on a `proto 2` connection. A follower sends ONE
// subscribe frame; from then on the connection is a one-way leader→follower
// stream (grammar in docs/FORMATS.md):
//
//   0x03 subscribe  lpstr(project) varint(have_seq) [varint(epoch)
//                   [lpstr(leader-hint)]]
//   0x90 hello      varint(has-ckpt) varint(seq) varint(bytes) varint(crc)
//                   [varint(epoch)]
//   0x91 chunk      varint(offset) varint(crc) lpstr(bytes)
//   0x92 record     varint(seq) varint(crc) lpstr(payload)
//   0x93 stamp      varint(seq) 5*varint(zigzag counter) [varint(epoch)]
//   0x94 error      lpstr(message)
//
// `epoch` is the leader epoch fencing failover (docs/OPERATIONS.md): a
// subscriber announces the highest epoch it has seen plus the address it
// learned it from (`leader-hint`, may be empty); a leader hearing a higher
// epoch than its own demotes itself instead of split-brain-serving. Hello
// and stamp carry the leader's epoch so followers reject stale leaders.
// The bracketed fields were appended after these frames first shipped, so
// they are OPTIONAL on decode: a pre-epoch peer omits them and absence
// reads as epoch 0 / no hint, keeping mixed-version clusters replicating
// through a rolling upgrade (new peers always encode them).
inline constexpr uint8_t kFrameReplSubscribe = 0x03;
inline constexpr uint8_t kFrameReplHello = 0x90;
inline constexpr uint8_t kFrameReplChunk = 0x91;
inline constexpr uint8_t kFrameReplRecord = 0x92;
inline constexpr uint8_t kFrameReplStamp = 0x93;
inline constexpr uint8_t kFrameReplError = 0x94;

// Wire verb identifiers. Frozen once shipped — append, never renumber.
enum class WireVerb : uint8_t {
  kPing = 1,
  kOpen = 2,
  kClose = 3,
  kDeadline = 4,
  kDefine = 5,
  kEquiv = 6,
  kAssert = 7,
  kIntegrate = 8,
  kExport = 9,
  kRank = 10,
  kSuggest = 11,
  kTranslate = 12,
  kOutline = 13,
  kMetrics = 14,
  kProto = 15,
  kPromote = 16,
  kDemote = 17,
};

// Text name of a wire verb ("ping", ...); null for an unknown code.
const char* WireVerbName(WireVerb verb);
// Inverse; nullopt for names that are not verbs.
std::optional<WireVerb> WireVerbFromName(std::string_view name);

// LEB128 varint append / consume. GetVarint returns false on truncation or
// an overlong (> 10 byte) encoding and leaves `in` unspecified.
void PutVarint(std::string& out, uint64_t value);
bool GetVarint(std::string_view& in, uint64_t& value);

// Length-prefixed byte string append / consume.
void PutLpString(std::string& out, std::string_view bytes);
bool GetLpString(std::string_view& in, std::string_view& bytes);

// One request of the binary protocol: a verb and raw (unescaped) args.
struct BinaryRequest {
  WireVerb verb = WireVerb::kPing;
  std::vector<std::string> args;
};

// Encodes one complete frame (length prefix included).
std::string EncodeBinaryRequest(const BinaryRequest& request);
std::string EncodeBinaryBatch(const std::vector<BinaryRequest>& requests);
std::string EncodeBinaryResponse(const ServiceResponse& response);
// A batch frame whose body would pass kMaxBinaryFrameBytes instead carries
// BAD_REQUEST, naming the item's size and the limit, for each item that
// would carry it past (room is kept for the refusals after it).
std::string EncodeBinaryBatchResponse(
    const std::vector<ServiceResponse>& responses);

// Incremental frame extraction from a connection buffer.
enum class FrameStatus {
  kComplete,  // *body is one frame body; drop *consumed buffer bytes
  kNeedMore,  // keep reading
  kError,     // malformed length prefix or oversized frame; close
};
FrameStatus ExtractFrame(std::string_view buffer, std::string_view* body,
                         size_t* consumed, std::string* error);

// A decoded request frame body (type 0x01 or 0x02).
struct DecodedRequest {
  bool batch = false;
  std::vector<BinaryRequest> items;  // exactly 1 when !batch
};
Result<DecodedRequest> DecodeBinaryRequest(std::string_view body);

// A decoded response frame body (type 0x81 or 0x82) — the client-side
// inverse of EncodeBinaryResponse/EncodeBinaryBatchResponse.
struct DecodedResponse {
  bool batch = false;
  std::vector<ServiceResponse> items;
};
Result<DecodedResponse> DecodeBinaryResponse(std::string_view body);

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_PROTOCOL_H_
