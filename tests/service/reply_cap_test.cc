// The server never sends a reply its own clients must refuse: a text reply
// over kMaxResponseFrameBytes (ParseResponse's limit) or a binary frame
// body over kMaxBinaryFrameBytes (ExtractFrame's) is replaced by
// BAD_REQUEST naming its size and the limit, and in a batch frame each
// item that would carry the frame past the cap gets that refusal instead.
// Every reply here must still parse back on the client side.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/router.h"
#include "service/service.h"

namespace ecrint::service {
namespace {

// A schema whose one attribute name is a million bytes long: its define
// line fits the 1 MiB request limit, and each one adds a megabyte to the
// project's export.
std::string BigSchemaDdl(int index) {
  return "schema big" + std::to_string(index) + " { entity E { " +
         std::string(1'000'000, 'a') + ": char key; } }";
}

class ReplyCapTest : public ::testing::Test {
 protected:
  ReplyCapTest() : service_(ServiceConfig{}), router_(&service_) {
    EXPECT_EQ(router_.HandleLine("open big", &text_).substr(0, 2), "ok");
    EXPECT_EQ(router_.HandleLine("open big", &binary_).substr(0, 2), "ok");
    EXPECT_EQ(router_.HandleLine("proto 2", &binary_).substr(0, 2), "ok");
  }

  // Defines `count` more megabyte schemas.
  void Grow(int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(router_
                    .HandleLine("define " + EscapeField(BigSchemaDdl(next_++)),
                                &text_)
                    .substr(0, 2),
                "ok");
    }
  }

  // Sends one binary frame and decodes the reply, which must pass the
  // client's own frame limit.
  DecodedResponse Exchange(const std::string& frame) {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete);
    std::string reply = router_.HandleFrame(body, &binary_);
    std::string_view reply_body;
    EXPECT_EQ(ExtractFrame(reply, &reply_body, &consumed, &error),
              FrameStatus::kComplete)
        << error;
    Result<DecodedResponse> decoded = DecodeBinaryResponse(reply_body);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.ok() ? *std::move(decoded) : DecodedResponse{};
  }

  static BinaryRequest Req(WireVerb verb) {
    BinaryRequest request;
    request.verb = verb;
    return request;
  }

  IntegrationService service_;
  RequestRouter router_;
  RouterSession text_;
  RouterSession binary_;
  int next_ = 0;
};

void ExpectTooLarge(const ServiceResponse& reply, std::string_view what) {
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error->code, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(reply.error->message.rfind("reply of ", 0), 0u)
      << reply.error->message;
  EXPECT_NE(reply.error->message.find(what), std::string::npos)
      << reply.error->message;
  EXPECT_NE(reply.error->message.find("the 8388608-byte limit"),
            std::string::npos)
      << reply.error->message;
}

TEST_F(ReplyCapTest, OversizedSingleReplyIsRefusedOnBothFramings) {
  Grow(9);  // an export of about 9 MB

  std::string wire = router_.HandleLine("export", &text_);
  EXPECT_LE(wire.size(), kMaxResponseFrameBytes);
  Result<ServiceResponse> parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectTooLarge(*parsed, "bytes exceeds");

  DecodedResponse decoded =
      Exchange(EncodeBinaryRequest(Req(WireVerb::kExport)));
  ASSERT_EQ(decoded.items.size(), 1u);
  ExpectTooLarge(decoded.items[0], "bytes exceeds");

  // A small reply on the same connections is untouched.
  EXPECT_EQ(router_.HandleLine("ping", &text_), "ok\npong\n.\n");
}

TEST_F(ReplyCapTest, BatchItemsThatWouldPassTheCapAreRefused) {
  Grow(5);  // an export of about 5 MB: one fits a frame, two do not

  std::string wire = router_.HandleLine("export", &text_);
  Result<ServiceResponse> single = ParseResponse(wire);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(single->ok());

  DecodedResponse decoded = Exchange(EncodeBinaryBatch(
      {Req(WireVerb::kExport), Req(WireVerb::kExport), Req(WireVerb::kPing)}));
  ASSERT_EQ(decoded.items.size(), 3u);
  ASSERT_TRUE(decoded.items[0].ok());
  EXPECT_EQ(decoded.items[0].lines, single->lines);
  ExpectTooLarge(decoded.items[1], "carries the batch frame past");
  ASSERT_TRUE(decoded.items[2].ok());
  EXPECT_EQ(decoded.items[2].lines, std::vector<std::string>{"pong"});
}

}  // namespace
}  // namespace ecrint::service
