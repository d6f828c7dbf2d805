// The service plane end to end: verb semantics over sessions, admission
// control (queue depth, deadlines) driven by a ManualClock — no test ever
// sleeps — engine-failure mapping onto the four wire codes, idle-session
// reaping, and the router's line protocol.

#include "service/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "commands.h"
#include "service/protocol.h"
#include "service/router.h"

namespace ecrint::service {
namespace {

constexpr const char* kUniversityDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } }\n"
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

using commands::Assert;
using commands::Bare;
using commands::Define;
using commands::Equiv;
using commands::Op;
using commands::Rank;

// A service on a manual clock plus one open session, the fixture every
// test starts from.
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    config_.clock = &clock_;
    service_ = std::make_unique<IntegrationService>(config_);
    session_ = service_->OpenSession("uni");
  }

  // Declares the standard equivalences and asserts Student = Grad.
  void SeedProject() {
    ASSERT_TRUE(service_->Execute(session_, Define(kUniversityDdl)).ok());
    ASSERT_TRUE(service_
                    ->Execute(session_, Equiv({"sc1", "Student", "Name"},
                                              {"sc2", "Grad", "Name"}))
                    .ok());
    ASSERT_TRUE(service_
                    ->Execute(session_, Equiv({"sc1", "Student", "GPA"},
                                              {"sc2", "Grad", "GPA"}))
                    .ok());
    ASSERT_TRUE(
        service_->Execute(session_, AssertCommand(/*type_code=*/1)).ok());
  }

  // assert sc1.Student <type_code> sc2.Grad
  static ServiceCommand AssertCommand(int type_code) {
    return Assert({"sc1", "Student"}, type_code, {"sc2", "Grad"});
  }

  common::ManualClock clock_;
  ServiceConfig config_;
  std::unique_ptr<IntegrationService> service_;
  std::string session_;
};

TEST_F(ServiceTest, WriteReadPipeline) {
  SeedProject();
  ServiceResponse integrated =
      service_->Execute(session_, Bare(Op::kIntegrate));
  ASSERT_TRUE(integrated.ok());
  EXPECT_FALSE(integrated.lines.empty());

  ServiceResponse ranked =
      service_->Execute(session_, Rank("sc1", "sc2", /*include_zero=*/true));
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.lines.size(), 1u);
  // Two shared attribute classes across four attribute slots.
  EXPECT_EQ(ranked.lines[0], "sc1.Student sc2.Grad 0.5000");

  ServiceResponse outline = service_->Execute(session_, Bare(Op::kOutline));
  ASSERT_TRUE(outline.ok());
  EXPECT_FALSE(outline.lines.empty());

  ServiceResponse exported = service_->Execute(session_, Bare(Op::kExport));
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported.lines[0], "# ecrint project file");
}

TEST_F(ServiceTest, UnknownSessionIsBadRequest) {
  ServiceResponse response = service_->Execute("s999", Bare(Op::kOutline));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kBadRequest);
}

TEST_F(ServiceTest, ConflictingAssertionMapsToConflict) {
  SeedProject();
  // Student = Grad already holds; DISJOINT contradicts it.
  ServiceResponse response =
      service_->Execute(session_, AssertCommand(/*type_code=*/0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kConflict);
  EXPECT_FALSE(response.error->message.empty());
}

TEST_F(ServiceTest, ExpiredDeadlineIsTimeout) {
  SeedProject();
  clock_.AdvanceNs(1'000'000);
  // An absolute deadline already in the past: refused before execution.
  ServiceCommand outline = Bare(Op::kOutline);
  outline.deadline_ns = 500'000;
  ServiceResponse response = service_->Execute(session_, outline);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kTimeout);
}

TEST_F(ServiceTest, QueueDepthZeroShedsEverything) {
  ServiceConfig config;
  config.clock = &clock_;
  config.queue_depth = 0;
  IntegrationService strict(config);
  std::string session = strict.OpenSession("p");
  ServiceResponse response = strict.Execute(session, Define(kUniversityDdl));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kOverloaded);
}

TEST_F(ServiceTest, IdleSessionsAreReaped) {
  std::string idle = service_->OpenSession("uni");
  EXPECT_EQ(service_->sessions().size(), 2);
  // Activity keeps a session alive across the timeout window...
  clock_.AdvanceNs(config_.session_idle_timeout_ns / 2);
  ASSERT_TRUE(service_->Execute(session_, Define(kUniversityDdl)).ok());
  clock_.AdvanceNs(config_.session_idle_timeout_ns / 2 + 1);
  // ...while `idle` is now past its lease: the next request from anyone
  // reaps it (opportunistic, no timer thread), and its own requests fail.
  ASSERT_TRUE(service_
                  ->Execute(session_, Equiv({"sc1", "Student", "Name"},
                                            {"sc2", "Grad", "Name"}))
                  .ok());
  EXPECT_EQ(service_->sessions().size(), 1);
  ServiceResponse stale = service_->Execute(idle, Bare(Op::kOutline));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error->code, ServiceErrorCode::kBadRequest);
}

TEST_F(ServiceTest, SnapshotIsolatesReadersFromWrites) {
  SeedProject();
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  std::shared_ptr<const EngineSnapshot> held =
      service_->CurrentSnapshot(session_);
  ASSERT_NE(held, nullptr);

  // A write after the grab does not disturb the held snapshot.
  ASSERT_TRUE(service_
                  ->Execute(session_,
                            Define("schema sc3 { entity E { A: char key; } }"))
                  .ok());
  EXPECT_EQ(held->catalog->SchemaNames().size(), 2u);
  std::shared_ptr<const EngineSnapshot> fresh =
      service_->CurrentSnapshot(session_);
  EXPECT_EQ(fresh->catalog->SchemaNames().size(), 3u);
  // The untouched integration result is shared, not copied.
  EXPECT_EQ(held->integration.get(), fresh->integration.get());
}

TEST_F(ServiceTest, MetricsCountRequestsAndErrors) {
  SeedProject();
  (void)service_->Execute("s999", Bare(Op::kOutline));  // BAD_REQUEST
  std::string json = service_->metrics().MetricsJson();
  EXPECT_NE(json.find("\"requests.define\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"requests.equiv\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"errors.BAD_REQUEST\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshots.published\""), std::string::npos);
  EXPECT_NE(json.find("latency.define"), std::string::npos);
}

TEST_F(ServiceTest, ClosureMetricsSurfaceKernelActivity) {
  SeedProject();
  // Integrate seeds schema structure through the closure kernel, so the
  // closure.* instruments must show pops/narrowings and a kernel sample.
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  std::string json = service_->metrics().MetricsJson();
  EXPECT_NE(json.find("closure.worklist_pops"), std::string::npos);
  EXPECT_NE(json.find("closure.row_compositions"), std::string::npos);
  EXPECT_NE(json.find("closure.narrowings"), std::string::npos);
  EXPECT_NE(json.find("closure.kernel"), std::string::npos);
  EXPECT_NE(json.find("closure.clusters"), std::string::npos);
  EXPECT_GT(service_->metrics().GetCounter("closure.worklist_pops")->value(),
            0);
  // A rejected contradiction bumps the conflict counter.
  ASSERT_FALSE(
      service_->Execute(session_, AssertCommand(/*type_code=*/0)).ok());
  EXPECT_GT(service_->metrics().GetCounter("closure.conflicts")->value(), 0);
}

// Every integrate that builds its seeded closure is timed in integrate.seed;
// only the ones that re-seed every schema count in integrate.full_rebuilds.
// A define after an integrate forces such a re-seed, and closure.* must
// count its work even though the new seeded store replaces a larger one.
TEST_F(ServiceTest, IntegrateMetricsSeparateFullRebuildsFromExtensions) {
  ASSERT_TRUE(service_->Execute(session_, Define(kUniversityDdl)).ok());
  ASSERT_TRUE(service_->Execute(session_, AssertCommand(/*type_code=*/1)).ok());
  MetricsRegistry& metrics = service_->metrics();
  Counter* rebuilds = metrics.GetCounter("integrate.full_rebuilds");
  Histogram* seed = metrics.GetHistogram("integrate.seed");
  Counter* pops = metrics.GetCounter("closure.worklist_pops");

  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(rebuilds->value(), 1);
  EXPECT_EQ(seed->count(), 1);

  // After an equiv the integrate reuses the cached closure: timed, no
  // rebuild.
  ASSERT_TRUE(service_
                  ->Execute(session_, Equiv({"sc1", "Student", "Name"},
                                            {"sc2", "Grad", "Name"}))
                  .ok());
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(rebuilds->value(), 1);
  EXPECT_EQ(seed->count(), 2);

  // A served-from-cache integrate builds nothing.
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(seed->count(), 2);

  // A schema of five entity sets: the re-seed after the define asserts
  // their pairwise disjointness (ten seeds), so it pops at least as many
  // edges as it has seeds.
  const int64_t pops_before = pops->value();
  ASSERT_TRUE(service_
                  ->Execute(session_,
                            Define("schema sc4 { entity A { Ia: int key; } "
                                   "entity B { Ib: int key; } "
                                   "entity C { Ic: int key; } "
                                   "entity D { Id: int key; } "
                                   "entity E { Ie: int key; } }"))
                  .ok());
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(rebuilds->value(), 2);
  EXPECT_EQ(seed->count(), 3);
  EXPECT_GE(pops->value() - pops_before, 10);
}

// integrate.plan_builds counts the integrates that paid for a new plan:
// the first, and the first after a define; an integrate after an equiv
// reuses the plan.
TEST_F(ServiceTest, IntegrateMetricsCountPlanBuilds) {
  ASSERT_TRUE(service_->Execute(session_, Define(kUniversityDdl)).ok());
  Counter* builds = service_->metrics().GetCounter("integrate.plan_builds");
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(builds->value(), 1);
  ASSERT_TRUE(service_
                  ->Execute(session_, Equiv({"sc1", "Student", "Name"},
                                            {"sc2", "Grad", "Name"}))
                  .ok());
  ASSERT_TRUE(service_->Execute(session_, AssertCommand(/*type_code=*/1)).ok());
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(builds->value(), 1);
  ASSERT_TRUE(service_
                  ->Execute(session_,
                            Define("schema sc4 { entity A { Ia: int key; } }"))
                  .ok());
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_EQ(builds->value(), 2);
}

// --- router / line protocol ----------------------------------------------

class RouterTest : public ServiceTest {
 protected:
  RouterTest() : router_(service_.get()) {}

  // Sends one line, expects success, returns the payload lines.
  std::vector<std::string> Ok(const std::string& line) {
    Result<ServiceResponse> response =
        ParseResponse(router_.HandleLine(line, &wire_session_));
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_TRUE(response->ok()) << line << ": "
                                << response->error->message;
    return response->lines;
  }

  // Sends one line, expects failure, returns the error.
  ServiceError Err(const std::string& line) {
    Result<ServiceResponse> response =
        ParseResponse(router_.HandleLine(line, &wire_session_));
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response->ok()) << line;
    return response->error.value_or(ServiceError{});
  }

  RequestRouter router_;
  RouterSession wire_session_;
};

TEST_F(RouterTest, FullSessionOverTheWire) {
  EXPECT_EQ(Ok("ping"), std::vector<std::string>{"pong"});
  Ok("open uni2");
  Ok("define " + EscapeField(kUniversityDdl));
  Ok("equiv sc1.Student.Name sc2.Grad.Name");
  Ok("equiv sc1.Student.GPA sc2.Grad.GPA");
  Ok("assert sc1.Student 1 sc2.Grad");
  std::vector<std::string> ranked = Ok("rank sc1 sc2 zero");
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], "sc1.Student sc2.Grad 0.5000");
  EXPECT_FALSE(Ok("integrate").empty());
  EXPECT_FALSE(Ok("outline").empty());
  EXPECT_FALSE(Ok("suggest sc1 sc2").empty());
  Ok("close");
}

TEST_F(RouterTest, VerbsRequireASession) {
  ServiceError error = Err("outline");
  EXPECT_EQ(error.code, ServiceErrorCode::kBadRequest);
}

TEST_F(RouterTest, UnknownVerbAndBadArguments) {
  Ok("open uni");
  EXPECT_EQ(Err("frobnicate").code, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("equiv one two").code, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("assert sc1.Student nine sc2.Grad").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("rank sc1").code, ServiceErrorCode::kBadRequest);
}

TEST_F(RouterTest, DeadlineZeroExpiresEveryRequest) {
  // A nonzero clock, so the computed absolute deadline (now + 0) is
  // distinguishable from the "no deadline set" sentinel 0.
  clock_.AdvanceNs(1);
  Ok("open uni");
  Ok("deadline 0");
  EXPECT_EQ(Err("outline").code, ServiceErrorCode::kTimeout);
  Ok("deadline default");
  SeedProject();  // direct API writes still work
  ASSERT_TRUE(service_->Execute(session_, Bare(Op::kIntegrate)).ok());
  EXPECT_FALSE(Ok("outline").empty());
}

TEST_F(RouterTest, DemoteRejectsMalformedEpochs) {
  Ok("open uni");
  // strtoull on its own would accept every one of these: "-1" negates to
  // 2^64-1, "+2" parses, overflow saturates silently. Any of them poisons
  // the fence — epoch 2^64-1 can never be superseded because promote's
  // epoch+1 wraps to 0.
  EXPECT_EQ(Err("demote -1 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote +2 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote 2x 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote 99999999999999999999 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);  // ERANGE
  EXPECT_EQ(Err("demote 18446744073709551615 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);  // 2^64-1: increment would wrap
  // The largest usable epoch and a plain small one still parse.
  EXPECT_FALSE(Ok("demote 2 10.0.0.9:7400").empty());
  EXPECT_FALSE(Ok("demote 18446744073709551614 10.0.0.9:7400").empty());
}

}  // namespace
}  // namespace ecrint::service
