// Text and binary are two framings of one request: every verb, sent as a
// text line and as a binary frame to twin services seeded alike, must get
// the same reply — the same code and message, or the same payload lines.
// The table covers each verb's valid form, its malformed-argument forms,
// the verbs a batch bars (session and failover verbs), and every verb on a
// connection that has not sent `open`. The only replies allowed to differ
// are the text-only refusals, checked on their own below: line
// validation, `empty request`, the name in `unknown verb '<name>'`, and
// the usage line of `define`'s escaped DDL.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/router.h"
#include "service/service.h"

namespace ecrint::service {
namespace {

constexpr const char* kSeedDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } "
    "entity Dept { Dname: char key; } } "
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

// One request, written once for both framings: the text line joins the
// arguments with single spaces (define's DDL escaped), the binary frame
// carries them raw.
struct Row {
  std::string verb;
  std::vector<std::string> args;
  // False only for `metrics`, whose payload is the twin's own live
  // counters and latencies.
  bool compare_payload = true;
};

std::string TextLine(const Row& row) {
  std::string line = row.verb;
  for (const std::string& arg : row.args) {
    line += ' ';
    line += row.verb == "define" ? EscapeField(arg) : arg;
  }
  return line;
}

std::string BinaryFrame(const Row& row) {
  BinaryRequest request;
  std::optional<WireVerb> verb = WireVerbFromName(row.verb);
  // A code no verb uses stands in for an unknown name.
  request.verb = verb.value_or(static_cast<WireVerb>(99));
  request.args = row.args;
  return EncodeBinaryRequest(request);
}

// A service seeded through its own text session, plus the twin session
// under test, opened on the seeded project in the given framing.
class Twin {
 public:
  explicit Twin(int protocol_version)
      : service_(ServiceConfig{}), router_(&service_),
        protocol_version_(protocol_version) {
    RouterSession seeder;
    for (const std::string& line :
         {std::string("open par"), "define " + EscapeField(kSeedDdl),
          std::string("equiv sc1.Student.Name sc2.Grad.Name"),
          std::string("assert sc1.Student 1 sc2.Grad"),
          std::string("integrate")}) {
      Result<ServiceResponse> reply =
          ParseResponse(router_.HandleLine(line, &seeder));
      EXPECT_TRUE(reply.ok() && reply->ok()) << line;
    }
    EXPECT_EQ(router_.HandleLine("open par", &session_).substr(0, 2), "ok");
    session_.protocol_version = protocol_version;
  }

  // Sends `row` in this twin's framing on `session` (the twin's own
  // session when null) and decodes the reply.
  ServiceResponse Send(const Row& row, RouterSession* session = nullptr) {
    if (session == nullptr) session = &session_;
    ServiceResponse response;
    if (protocol_version_ == kProtocolTextVersion) {
      Result<ServiceResponse> parsed =
          ParseResponse(router_.HandleLine(TextLine(row), session));
      EXPECT_TRUE(parsed.ok()) << TextLine(row);
      if (parsed.ok()) response = *std::move(parsed);
    } else {
      std::string frame = BinaryFrame(row);
      std::string_view body;
      size_t consumed = 0;
      std::string error;
      EXPECT_EQ(ExtractFrame(frame, &body, &consumed, &error),
                FrameStatus::kComplete);
      std::string reply = router_.HandleFrame(body, session);
      std::string_view reply_body;
      EXPECT_EQ(ExtractFrame(reply, &reply_body, &consumed, &error),
                FrameStatus::kComplete)
          << TextLine(row);
      Result<DecodedResponse> decoded = DecodeBinaryResponse(reply_body);
      EXPECT_TRUE(decoded.ok() && decoded->items.size() == 1)
          << TextLine(row);
      if (decoded.ok() && !decoded->items.empty()) {
        response = std::move(decoded->items[0]);
      }
    }
    // The test drives HandleLine and HandleFrame directly, so a `proto`
    // row must not leave the twin answering in the other framing.
    session->protocol_version = protocol_version_;
    return response;
  }

 private:
  IntegrationService service_;
  RequestRouter router_;
  int protocol_version_;
  RouterSession session_;
};

void ExpectSameReply(const Row& row, const ServiceResponse& text,
                     const ServiceResponse& binary) {
  const std::string line = TextLine(row).substr(0, 60);
  ASSERT_EQ(text.ok(), binary.ok()) << line;
  if (!text.ok()) {
    EXPECT_EQ(text.error->code, binary.error->code) << line;
    EXPECT_EQ(text.error->message, binary.error->message) << line;
    EXPECT_EQ(text.error->retry_after_ms, binary.error->retry_after_ms)
        << line;
    EXPECT_EQ(text.error->leader, binary.error->leader) << line;
  }
  if (row.compare_payload) {
    EXPECT_EQ(text.lines, binary.lines) << line;
  }
}

// The rows a bound session sends, in order: each one's effect (a write, a
// deadline, a demotion) is the same on both twins, so later rows see the
// same state on both.
std::vector<Row> SessionRows() {
  return {
      {"ping", {}},
      {"ping", {"extra"}},
      {"proto", {"2"}},
      {"proto", {}},
      {"proto", {"3"}},
      {"proto", {"two"}},
      {"proto", {"1", "2"}},
      {"deadline", {"5000"}},
      {"deadline", {"default"}},
      {"deadline", {}},
      {"deadline", {"1", "2"}},
      {"deadline", {"soon"}},
      {"deadline", {"-4"}},
      {"define", {"schema sc3 { entity Course { Title: char key; } }"}},
      {"define", {"schema"}},
      {"define", {"schema sc3 { entity Course { Title: char key; } }"}},
      {"equiv", {"sc1.Student.GPA", "sc2.Grad.GPA"}},
      {"equiv", {"sc1.Student.GPA"}},
      {"equiv", {"sc1.Student", "sc2.Grad.GPA"}},
      {"equiv", {"sc1.Student.GPA", "sc2.Grad"}},
      {"equiv", {"sc1.Student.Nope", "sc2.Grad.GPA"}},
      {"assert", {"sc1.Dept", "0", "sc2.Grad"}},
      {"assert", {"sc1.Student", "1"}},
      {"assert", {"sc1", "1", "sc2.Grad"}},
      {"assert", {"sc1.Student", "nine", "sc2.Grad"}},
      {"assert", {"sc1.Student", "1x", "sc2.Grad"}},
      {"assert", {"sc1.Student", "9", "sc2.Grad"}},
      {"assert", {"sc1.Student", "1", "sc2"}},
      {"assert", {"sc1.Student", "0", "sc2.Grad"}},
      {"integrate", {}},
      {"integrate", {"sc1", "sc2"}},
      {"integrate", {"sc1", "sc1"}},
      {"integrate", {"sc1", "nosuch"}},
      {"rank", {"sc1", "sc2"}},
      {"rank", {"sc1", "sc2", "rel", "zero"}},
      {"rank", {"sc1", "sc2", "zero"}},
      {"rank", {"sc1", "sc2", "zero"}},
      {"rank", {"sc1"}},
      {"rank", {"sc1", "sc2", "rel", "zero", "more"}},
      {"rank", {"sc1", "sc2", "bogus"}},
      {"rank", {"sc1", "nosuch"}},
      {"suggest", {"sc1", "sc2"}},
      {"suggest", {"sc1", "sc2", "0.9"}},
      {"suggest", {"sc1", "sc2"}},
      {"suggest", {"sc1"}},
      {"suggest", {"sc1", "sc2", "high"}},
      {"suggest", {"sc1", "sc2", "0.9", "more"}},
      {"translate", {"sc1.Student"}},
      {"translate", {"components", "sc1.Student"}},
      {"translate", {"sc1.Student", "Name,GPA"}},
      {"translate", {}},
      {"translate", {"components"}},
      {"translate", {"sc1"}},
      {"translate", {"sc1.Student", "Name", "extra"}},
      {"translate", {"sc9.Nobody"}},
      {"outline", {}},
      {"outline", {}},
      {"outline", {"extra"}},
      {"export", {}},
      {"export", {"extra"}},
      {"metrics", {}, /*compare_payload=*/false},
      {"metrics", {"extra"}},
      {"deadline", {"0"}},
      {"outline", {}},
      {"rank", {"sc1", "sc2"}},
      {"equiv", {"sc1.Student.GPA", "sc2.Grad.GPA"}},
      {"export", {}},
      {"deadline", {"default"}},
      {"promote", {"extra"}},
      {"promote", {}},
      {"demote", {}},
      {"demote", {"5"}},
      {"demote", {"-1", "10.0.0.9:7400"}},
      {"demote", {"5x", "10.0.0.9:7400"}},
      {"demote", {"0", "10.0.0.9:7400"}},
      {"demote", {"5", "10.0.0.9:7400"}},
      {"equiv", {"sc1.Student.GPA", "sc2.Grad.GPA"}},
      {"rank", {"sc1", "sc2"}},
      {"promote", {}},
      {"open", {"par", "extra"}},
      {"open", {"par"}},
      {"close", {}},
      {"close", {}},
      {"deadline", {"5"}},
      {"outline", {}},
      {"open", {}},
      {"outline", {}},
  };
}

// One valid form of every verb (and an unknown name), each sent on a
// fresh connection that never sent `open`.
std::vector<Row> UnopenedRows() {
  return {
      {"ping", {}},
      {"proto", {"2"}},
      {"proto", {"9"}},
      {"close", {}},
      {"deadline", {"5"}},
      {"define", {"schema sc4 { entity E { A: char key; } }"}},
      {"equiv", {"sc1.Student.GPA", "sc2.Grad.GPA"}},
      {"assert", {"sc1.Student", "1", "sc2.Grad"}},
      {"integrate", {}},
      {"export", {}},
      {"rank", {"sc1", "sc2"}},
      {"suggest", {"sc1", "sc2"}},
      {"translate", {"sc1.Student"}},
      {"outline", {}},
      {"metrics", {}},
      {"promote", {}},
      {"demote", {"5", "10.0.0.9:7400"}},
      {"frobnicate", {}},
      {"open", {"par"}},
      {"open", {"par", "extra"}},
  };
}

TEST(FramingParityTest, EveryVerbAnswersAlikeOnABoundSession) {
  Twin text(kProtocolTextVersion);
  Twin binary(kProtocolBinaryVersion);
  for (const Row& row : SessionRows()) {
    ExpectSameReply(row, text.Send(row), binary.Send(row));
  }
}

TEST(FramingParityTest, EveryVerbAnswersAlikeBeforeOpen) {
  Twin text(kProtocolTextVersion);
  Twin binary(kProtocolBinaryVersion);
  for (const Row& row : UnopenedRows()) {
    RouterSession text_session;
    RouterSession binary_session;
    binary_session.protocol_version = kProtocolBinaryVersion;
    ExpectSameReply(row, text.Send(row, &text_session),
                    binary.Send(row, &binary_session));
  }
}

// The replies only the text framing can produce: they refuse a line
// before it is a request, or name what only a text line carries.
TEST(FramingParityTest, TextOnlyRefusals) {
  IntegrationService service{ServiceConfig{}};
  RequestRouter router(&service);
  RouterSession session;
  ASSERT_EQ(router.HandleLine("open par", &session).substr(0, 2), "ok");
  EXPECT_EQ(router.HandleLine("", &session),
            "err BAD_REQUEST empty request\n.\n");
  EXPECT_EQ(router.HandleLine(" \t ", &session),
            "err BAD_REQUEST empty request\n.\n");
  EXPECT_EQ(router.HandleLine(std::string("rank sc1\0 sc2", 13), &session),
            "err BAD_REQUEST request line contains a NUL byte\n.\n");
  EXPECT_EQ(router.HandleLine("frobnicate now", &session),
            "err BAD_REQUEST unknown verb 'frobnicate'\n.\n");
  EXPECT_EQ(router.HandleLine("define", &session),
            "err BAD_REQUEST usage: define <escaped-ddl>\n.\n");
  EXPECT_EQ(router.HandleLine("define schema\\q", &session).substr(0, 16),
            "err BAD_REQUEST ");

  // The binary counterparts: an unknown code is refused without a name,
  // and an empty DDL argument with the binary usage line.
  Twin binary(kProtocolBinaryVersion);
  ServiceResponse unknown = binary.Send({"frobnicate", {}});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error->message, "unknown verb");
  ServiceResponse empty_ddl = binary.Send({"define", {""}});
  ASSERT_FALSE(empty_ddl.ok());
  EXPECT_EQ(empty_ddl.error->message, "usage: define <ddl>");
}

// A connection that never sent `open` hears "no session" for `deadline`
// whatever its arguments, on both framings: the session is checked before
// the arguments.
TEST(FramingParityTest, DeadlineChecksTheSessionBeforeItsArguments) {
  for (int version : {kProtocolTextVersion, kProtocolBinaryVersion}) {
    Twin twin(version);
    for (const Row& row :
         {Row{"deadline", {}}, Row{"deadline", {"1", "2"}}}) {
      RouterSession unopened;
      unopened.protocol_version = version;
      ServiceResponse reply = twin.Send(row, &unopened);
      ASSERT_FALSE(reply.ok()) << TextLine(row);
      EXPECT_EQ(reply.error->message, "no session; send: open [project]")
          << "framing " << version << ": " << TextLine(row);
    }
  }
}

// An integer argument outside `int` is refused with BAD_REQUEST naming the
// token, on both framings, rather than narrowed into range.
void ExpectOutOfRange(const ServiceResponse& reply, const std::string& token,
                      int version) {
  ASSERT_FALSE(reply.ok()) << "framing " << version << ": " << token;
  EXPECT_EQ(reply.error->code, ServiceErrorCode::kBadRequest);
  EXPECT_NE(reply.error->message.find("out of range"), std::string::npos)
      << reply.error->message;
  EXPECT_NE(reply.error->message.find("'" + token + "'"), std::string::npos)
      << reply.error->message;
}

TEST(IntegerArgumentTest, AssertCodeOutOfRangeIsRefused) {
  for (int version : {kProtocolTextVersion, kProtocolBinaryVersion}) {
    Twin twin(version);
    // 2^32 + 1 used to wrap to code 1 (contains) and be journaled so.
    for (const std::string token :
         {"4294967297", "-4294967295", "99999999999999999999"}) {
      ExpectOutOfRange(twin.Send({"assert", {"sc1.Dept", token, "sc2.Grad"}}),
                       token, version);
    }
    ServiceResponse exported = twin.Send({"export", {}});
    ASSERT_TRUE(exported.ok());
    for (const std::string& line : exported.lines) {
      EXPECT_EQ(line.find("sc1.Dept "), std::string::npos) << line;
    }
  }
}

TEST(IntegerArgumentTest, DeadlineOutOfRangeIsRefused) {
  for (int version : {kProtocolTextVersion, kProtocolBinaryVersion}) {
    Twin twin(version);
    // 2^32 used to wrap to a 0 ms deadline that expired every request.
    ExpectOutOfRange(twin.Send({"deadline", {"4294967296"}}), "4294967296",
                     version);
    EXPECT_TRUE(twin.Send({"outline", {}}).ok());
  }
}

TEST(IntegerArgumentTest, ProtoOutOfRangeIsRefused) {
  for (int version : {kProtocolTextVersion, kProtocolBinaryVersion}) {
    Twin twin(version);
    // 2^32 + 2 used to wrap to 2 and switch the connection to binary.
    ExpectOutOfRange(twin.Send({"proto", {"4294967298"}}), "4294967298",
                     version);
  }
}

}  // namespace
}  // namespace ecrint::service
