#include "service/router.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace ecrint::service {

namespace {

ServiceResponse BadRequest(std::string message) {
  ServiceResponse response;
  response.error = {ServiceErrorCode::kBadRequest, std::move(message)};
  return response;
}

Result<ecr::AttributePath> ParsePath(const std::string& token) {
  std::vector<std::string> parts = Split(token, '.');
  if (parts.size() != 3) {
    return ParseError("expected schema.object.attribute, got '" + token +
                      "'");
  }
  return ecr::AttributePath{parts[0], parts[1], parts[2]};
}

Result<core::ObjectRef> ParseRef(const std::string& token) {
  std::vector<std::string> parts = Split(token, '.');
  if (parts.size() != 2) {
    return ParseError("expected schema.object, got '" + token + "'");
  }
  return core::ObjectRef{parts[0], parts[1]};
}

// A value outside `int` is refused, not narrowed: `assert a 4294967297 b`
// must not journal code 1, nor `deadline 4294967296` set a 0 ms deadline.
Result<int> ParseInt(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return ParseError("expected integer, got '" + token + "'");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return ParseError("integer out of range, got '" + token + "'");
  }
  return static_cast<int>(value);
}

Result<double> ParseDouble(const std::string& token) {
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return ParseError("expected number, got '" + token + "'");
  }
  return value;
}

// The raw text after the verb token (for verbs whose single argument may
// contain spaces, like define's escaped DDL).
std::string TailAfterVerb(const std::string& line) {
  std::string_view rest = StripWhitespace(line);
  size_t space = rest.find_first_of(" \t");
  if (space == std::string_view::npos) return "";
  rest.remove_prefix(space);
  return std::string(StripWhitespace(rest));
}

constexpr const char* kNoSession = "no session; send: open [project]";

bool IsSessionVerb(WireVerb verb) {
  return verb == WireVerb::kOpen || verb == WireVerb::kClose ||
         verb == WireVerb::kDeadline || verb == WireVerb::kProto;
}

// Failover admin verbs (docs/OPERATIONS.md, "Failover runbook"). They
// change the NODE's role, not one request's outcome, so like session verbs
// they are barred from batches.
bool IsFailoverVerb(WireVerb verb) {
  return verb == WireVerb::kPromote || verb == WireVerb::kDemote;
}

// `promote`: make this node the write leader of the session's project at a
// freshly bumped epoch. Answers "leader epoch <N>".
ServiceResponse PromoteVerb(IntegrationService* service,
                            const std::string& session_id) {
  Result<std::string> project = service->sessions().ProjectOf(session_id);
  if (!project.ok()) return BadRequest(project.status().ToString());
  Result<uint64_t> epoch = service->PromoteProject(*project);
  if (!epoch.ok()) {
    ServiceResponse response;
    response.error = {ServiceErrorCode::kConflict, epoch.status().message()};
    return response;
  }
  ServiceResponse response;
  response.lines.push_back("leader epoch " + std::to_string(*epoch));
  return response;
}

// `demote <epoch> <leader-addr>`: fence this node behind `leader-addr` at
// `epoch`. A stale epoch answers CONFLICT (the node keeps its role).
ServiceResponse DemoteVerb(IntegrationService* service,
                           const std::string& session_id,
                           const std::string& epoch_arg,
                           const std::string& leader_addr) {
  Result<std::string> project = service->sessions().ProjectOf(session_id);
  if (!project.ok()) return BadRequest(project.status().ToString());
  // Strict base-10 parse: strtoull on its own accepts leading whitespace
  // and a '-' sign (negating the value into the upper range) and saturates
  // silently on overflow to 2^64-1 — any of which would poison the fence:
  // PromoteProject computes epoch+1, so a near-max epoch wraps to 0 and no
  // future promote could ever supersede it. Require a digit-led token,
  // reject ERANGE, and cap at 2^64-2 so an increment always fits.
  if (epoch_arg.empty() ||
      std::isdigit(static_cast<unsigned char>(epoch_arg[0])) == 0) {
    return BadRequest("expected epoch, got '" + epoch_arg + "'");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long epoch = std::strtoull(epoch_arg.c_str(), &end, 10);
  if (end == epoch_arg.c_str() || *end != '\0' || errno == ERANGE ||
      epoch >= std::numeric_limits<uint64_t>::max()) {
    return BadRequest("epoch out of range: '" + epoch_arg + "'");
  }
  if (leader_addr.empty()) {
    return BadRequest("usage: demote <epoch> <leader-addr>");
  }
  Status demoted =
      service->DemoteProject(*project, static_cast<uint64_t>(epoch),
                             leader_addr);
  if (!demoted.ok()) {
    ServiceResponse response;
    response.error = {ServiceErrorCode::kConflict, demoted.message()};
    return response;
  }
  ServiceResponse response;
  if (!service->LeadsWrites() && service->CurrentLeaderAddr().empty()) {
    // The hint pointed back at this node, so the service fenced instead of
    // following itself; saying "following" here would tell the operator
    // the redirect loop they just avoided is in effect.
    response.lines.push_back("fenced at epoch " + epoch_arg +
                             " (hint points at this node)");
  } else {
    response.lines.push_back("following " + leader_addr + " at epoch " +
                             epoch_arg);
  }
  return response;
}

// Parses one request (from either framing) into a protocol-independent
// command. Returns the error response on a malformed request, nullopt on
// success. Arguments are raw bytes: a text line unescaped define's DDL
// before it got here, and a binary frame carries it verbatim.
std::optional<ServiceResponse> BuildCommand(const BinaryRequest& request,
                                            ServiceCommand* out) {
  const std::vector<std::string>& args = request.args;
  switch (request.verb) {
    case WireVerb::kPing:
      out->op = ServiceCommand::Op::kPing;
      return std::nullopt;
    case WireVerb::kDefine: {
      if (args.size() != 1 || args[0].empty()) {
        return BadRequest("usage: define <ddl>");
      }
      out->op = ServiceCommand::Op::kDefine;
      out->text = args[0];
      return std::nullopt;
    }
    case WireVerb::kEquiv: {
      if (args.size() != 2) return BadRequest("usage: equiv <s.o.a> <s.o.a>");
      Result<ecr::AttributePath> a = ParsePath(args[0]);
      if (!a.ok()) return BadRequest(a.status().ToString());
      Result<ecr::AttributePath> b = ParsePath(args[1]);
      if (!b.ok()) return BadRequest(b.status().ToString());
      out->op = ServiceCommand::Op::kEquiv;
      out->path_a = *a;
      out->path_b = *b;
      return std::nullopt;
    }
    case WireVerb::kAssert: {
      if (args.size() != 3) return BadRequest("usage: assert <s.o> <0-5> <s.o>");
      Result<core::ObjectRef> first = ParseRef(args[0]);
      if (!first.ok()) return BadRequest(first.status().ToString());
      Result<int> code = ParseInt(args[1]);
      if (!code.ok()) return BadRequest(code.status().ToString());
      Result<core::ObjectRef> second = ParseRef(args[2]);
      if (!second.ok()) return BadRequest(second.status().ToString());
      out->op = ServiceCommand::Op::kAssert;
      out->first = *first;
      out->type_code = *code;
      out->second = *second;
      return std::nullopt;
    }
    case WireVerb::kIntegrate:
      out->op = ServiceCommand::Op::kIntegrate;
      out->schemas = args;
      return std::nullopt;
    case WireVerb::kExport:
      if (!args.empty()) return BadRequest("usage: export");
      out->op = ServiceCommand::Op::kExport;
      return std::nullopt;
    case WireVerb::kRank: {
      if (args.size() < 2 || args.size() > 4) {
        return BadRequest("usage: rank <schema1> <schema2> [rel] [zero]");
      }
      out->op = ServiceCommand::Op::kRank;
      out->schema1 = args[0];
      out->schema2 = args[1];
      out->kind = core::StructureKind::kObjectClass;
      out->include_zero = false;
      for (size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "rel") {
          out->kind = core::StructureKind::kRelationshipSet;
        } else if (args[i] == "zero") {
          out->include_zero = true;
        } else {
          return BadRequest("unknown rank flag '" + args[i] + "'");
        }
      }
      return std::nullopt;
    }
    case WireVerb::kSuggest: {
      if (args.size() < 2 || args.size() > 3) {
        return BadRequest("usage: suggest <schema1> <schema2> [threshold]");
      }
      out->op = ServiceCommand::Op::kSuggest;
      out->schema1 = args[0];
      out->schema2 = args[1];
      out->threshold = 0.6;
      if (args.size() == 3) {
        Result<double> parsed = ParseDouble(args[2]);
        if (!parsed.ok()) return BadRequest(parsed.status().ToString());
        out->threshold = *parsed;
      }
      return std::nullopt;
    }
    case WireVerb::kTranslate: {
      size_t at = 0;
      out->to_components = false;
      if (at < args.size() && args[at] == "components") {
        out->to_components = true;
        ++at;
      }
      if (at >= args.size()) {
        return BadRequest(
            "usage: translate [components] <s.o> [attr,attr,...]");
      }
      Result<core::ObjectRef> structure = ParseRef(args[at++]);
      if (!structure.ok()) return BadRequest(structure.status().ToString());
      out->op = ServiceCommand::Op::kTranslate;
      out->request = {};
      out->request.structure = *structure;
      if (at < args.size()) {
        for (const std::string& attribute : Split(args[at], ',')) {
          if (!attribute.empty()) out->request.attributes.push_back(attribute);
        }
        ++at;
      }
      if (at != args.size()) {
        return BadRequest(
            "usage: translate [components] <s.o> [attr,attr,...]");
      }
      return std::nullopt;
    }
    case WireVerb::kOutline:
      if (!args.empty()) return BadRequest("usage: outline");
      out->op = ServiceCommand::Op::kOutline;
      return std::nullopt;
    case WireVerb::kMetrics:
      if (!args.empty()) return BadRequest("usage: metrics");
      out->op = ServiceCommand::Op::kMetrics;
      return std::nullopt;
    case WireVerb::kOpen:
    case WireVerb::kClose:
    case WireVerb::kDeadline:
    case WireVerb::kProto:
    case WireVerb::kPromote:
    case WireVerb::kDemote:
      return BadRequest("not a command verb");
  }
  return BadRequest("unknown verb");
}

}  // namespace

std::string RequestRouter::HandleLine(const std::string& line,
                                      RouterSession* session) {
  // Size and byte-content limits come first: an oversized or NUL-bearing
  // line is refused before any token of it is interpreted.
  if (Status valid = ValidateRequestLine(line); !valid.ok()) {
    return EncodeReply(BadRequest(valid.message()), kProtocolTextVersion);
  }
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return EncodeReply(BadRequest("empty request"), kProtocolTextVersion);
  }
  // The line becomes the request a binary frame would carry: its verb and
  // raw arguments.
  BinaryRequest request;
  std::string refusal;
  if (std::optional<WireVerb> verb = WireVerbFromName(tokens[0])) {
    request.verb = *verb;
    if (*verb == WireVerb::kDefine) {
      // define's one argument is the rest of the line, escaped so the DDL
      // keeps its newlines and spaces.
      std::string tail = TailAfterVerb(line);
      Result<std::string> ddl = UnescapeField(tail);
      if (tail.empty()) {
        refusal = "usage: define <escaped-ddl>";
      } else if (!ddl.ok()) {
        refusal = ddl.status().ToString();
      } else {
        request.args.push_back(*std::move(ddl));
      }
    } else {
      request.args.assign(std::make_move_iterator(tokens.begin() + 1),
                          std::make_move_iterator(tokens.end()));
    }
  } else {
    request.verb = static_cast<WireVerb>(0);  // no verb has code 0
    refusal = "unknown verb '" + tokens[0] + "'";
  }
  return Handle(request, refusal, session, kProtocolTextVersion);
}

std::string RequestRouter::HandleFrame(std::string_view body,
                                       RouterSession* session) {
  Result<DecodedRequest> decoded = DecodeBinaryRequest(body);
  if (!decoded.ok()) {
    return EncodeReply(BadRequest(decoded.status().message()),
                       kProtocolBinaryVersion);
  }
  if (decoded->batch) {
    return EncodeBinaryBatchResponse(HandleBatch(decoded->items, session));
  }
  return Handle(decoded->items[0], /*text_refusal=*/"", session,
                kProtocolBinaryVersion);
}

std::string RequestRouter::Handle(const BinaryRequest& request,
                                  const std::string& text_refusal,
                                  RouterSession* session,
                                  int protocol_version) {
  const std::vector<std::string>& args = request.args;
  ServiceResponse response;
  std::string wire;  // set only by a reply-memo hit
  // ping, open and proto are the verbs a connection may send before open.
  if (request.verb == WireVerb::kPing) {
    response.lines.push_back("pong");
  } else if (request.verb == WireVerb::kOpen) {
    if (args.size() > 1) {
      response = BadRequest("usage: open [project]");
    } else {
      session->session_id =
          service_->OpenSession(args.empty() ? "default" : args[0]);
      response.lines.push_back(session->session_id);
    }
  } else if (request.verb == WireVerb::kProto) {
    if (args.size() != 1) {
      response = BadRequest("usage: proto <1|2>");
    } else if (Result<int> version = ParseInt(args[0]); !version.ok()) {
      response = BadRequest(version.status().ToString());
    } else if (*version != kProtocolTextVersion &&
               *version != kProtocolBinaryVersion) {
      response = BadRequest("unsupported protocol version '" + args[0] + "'");
    } else {
      // The reply still goes out in the framing the request came in.
      session->protocol_version = *version;
      response.lines.push_back("proto " + std::to_string(*version));
    }
  } else if (session->session_id.empty()) {
    response = BadRequest(kNoSession);
  } else if (!text_refusal.empty()) {
    response = BadRequest(text_refusal);
  } else if (request.verb == WireVerb::kClose) {
    Status status = service_->CloseSession(session->session_id);
    session->session_id.clear();
    if (!status.ok()) response = BadRequest(status.ToString());
  } else if (request.verb == WireVerb::kDeadline) {
    if (args.size() != 1) {
      response = BadRequest("usage: deadline <ms>|default");
    } else if (args[0] == "default") {
      session->deadline_override_ns.reset();
    } else if (Result<int> ms = ParseInt(args[0]); !ms.ok()) {
      response = BadRequest(ms.status().ToString());
    } else if (*ms < 0) {
      response = BadRequest("deadline must be >= 0 ms");
    } else {
      session->deadline_override_ns = static_cast<int64_t>(*ms) * 1'000'000;
    }
  } else if (request.verb == WireVerb::kPromote) {
    response = args.empty() ? PromoteVerb(service_, session->session_id)
                            : BadRequest("usage: promote");
  } else if (request.verb == WireVerb::kDemote) {
    response = args.size() == 2
                   ? DemoteVerb(service_, session->session_id, args[0],
                                args[1])
                   : BadRequest("usage: demote <epoch> <leader-addr>");
  } else {
    ServiceCommand command;
    if (std::optional<ServiceResponse> error =
            BuildCommand(request, &command)) {
      response = *std::move(error);
    } else {
      // Absolute deadline: the connection's override, or 0 to let the
      // service apply its default.
      if (session->deadline_override_ns.has_value()) {
        command.deadline_ns =
            service_->clock()->NowNs() + *session->deadline_override_ns;
      }
      response = service_->Execute(session->session_id, command, &wire,
                                   protocol_version);
    }
  }
  return wire.empty() ? EncodeReply(response, protocol_version) : wire;
}

std::vector<ServiceResponse> RequestRouter::HandleBatch(
    const std::vector<BinaryRequest>& items, RouterSession* session) {
  // Parse every item first, then hand the runnable commands to the service
  // as ONE pipelined batch. Items that fail to parse (or are session verbs,
  // which would mutate connection state mid-pipeline) get their error
  // response in place; the rest keep their order.
  const size_t n = items.size();
  std::vector<ServiceResponse> out(n);
  std::vector<ServiceCommand> commands;
  std::vector<size_t> slots;
  commands.reserve(n);
  slots.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const BinaryRequest& item = items[i];
    if (IsSessionVerb(item.verb) || IsFailoverVerb(item.verb)) {
      out[i] = BadRequest(std::string(WireVerbName(item.verb)) +
                          " not allowed in batch");
      continue;
    }
    if (session->session_id.empty()) {
      if (item.verb == WireVerb::kPing) {
        out[i].lines.push_back("pong");
      } else {
        out[i] = BadRequest(kNoSession);
      }
      continue;
    }
    ServiceCommand command;
    if (std::optional<ServiceResponse> error = BuildCommand(item, &command)) {
      out[i] = *std::move(error);
      continue;
    }
    slots.push_back(i);
    commands.push_back(std::move(command));
  }
  if (!commands.empty()) {
    std::vector<ServiceResponse> results =
        service_->ExecuteBatch(session->session_id, commands);
    for (size_t j = 0; j < results.size(); ++j) {
      out[slots[j]] = std::move(results[j]);
    }
  }
  return out;
}

RequestRouter::FeedOutcome RequestRouter::Feed(std::string* input,
                                               RouterSession* session,
                                               std::string* output,
                                               std::string* handoff) {
  // Consumed bytes are tracked as an offset and erased once on exit — a
  // front-of-string erase per pipelined request would be quadratic.
  size_t offset = 0;
  FeedOutcome outcome = FeedOutcome::kNeedMore;
  for (;;) {
    if (session->protocol_version == kProtocolBinaryVersion) {
      std::string_view rest(*input);
      rest.remove_prefix(offset);
      std::string_view body;
      size_t consumed = 0;
      std::string frame_error;
      FrameStatus status =
          ExtractFrame(rest, &body, &consumed, &frame_error);
      if (status == FrameStatus::kError) {
        // Malformed framing is unrecoverable (the stream cannot be
        // resynchronized); answer once and close.
        *output +=
            EncodeReply(BadRequest(frame_error), kProtocolBinaryVersion);
        outcome = FeedOutcome::kClose;
        break;
      }
      if (status == FrameStatus::kNeedMore) break;
      if (!body.empty() &&
          static_cast<uint8_t>(body[0]) == kFrameReplSubscribe) {
        handoff->assign(body.data(), body.size());
        offset += consumed;
        outcome = FeedOutcome::kHandoff;
        break;
      }
      *output += HandleFrame(body, session);
      offset += consumed;
      // The response may have renegotiated the protocol; the next loop
      // iteration re-reads session->protocol_version either way.
    } else {
      size_t newline = input->find('\n', offset);
      if (newline == std::string::npos) {
        if (input->size() - offset > kMaxRequestLineBytes) {
          // A peer that streams bytes without ever sending a newline must
          // not grow the buffer without bound: past the request-line limit
          // the connection gets one error frame and is closed.
          *output += EncodeReply(
              BadRequest("request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) + " bytes"),
              kProtocolTextVersion);
          outcome = FeedOutcome::kClose;
        }
        break;
      }
      std::string line = input->substr(offset, newline - offset);
      offset = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      *output += HandleLine(line, session);
    }
  }
  input->erase(0, offset);
  return outcome;
}

}  // namespace ecrint::service
