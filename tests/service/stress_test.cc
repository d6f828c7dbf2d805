// Property-style concurrency stress: K writer threads race through one
// project's ground-truth mutation log (attribute equivalences + domain
// assertions, partitioned round-robin) while M reader threads hammer
// snapshot reads. The final integration must equal a single-threaded
// serial replay of the same log — sound because the mutations commute:
// equivalence-class unions are order-independent and the assertion
// closure's fixpoint is confluent. Readers check snapshot invariants
// (never null, generations monotonic, catalog immutable per snapshot).
// Seeded RNG, no sleeps, no wall-clock dependence.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/assertion.h"
#include "ecr/printer.h"
#include "engine/engine.h"
#include "commands.h"
#include "service/service.h"
#include "workload/generator.h"

namespace ecrint::service {
namespace {

using commands::Assert;
using commands::Bare;
using commands::Define;
using commands::Equiv;
using commands::Op;

// One ground-truth mutation: either an equivalence declare or an
// assertion.
struct Mutation {
  bool is_equivalence = false;
  workload::TrueAttributeMatch match;
  workload::TrueObjectRelation relation;
};

std::vector<Mutation> MutationLog(const workload::Workload& workload) {
  std::vector<Mutation> log;
  for (const workload::TrueAttributeMatch& match :
       workload.attribute_matches) {
    Mutation mutation;
    mutation.is_equivalence = true;
    mutation.match = match;
    log.push_back(mutation);
  }
  for (const workload::TrueObjectRelation& relation :
       workload.object_relations) {
    Mutation mutation;
    mutation.relation = relation;
    log.push_back(mutation);
  }
  return log;
}

void ApplyToEngine(engine::Engine& engine, const Mutation& mutation) {
  if (mutation.is_equivalence) {
    ASSERT_TRUE(
        engine.AssertEquivalence(mutation.match.first, mutation.match.second)
            .ok());
  } else {
    ASSERT_TRUE(engine
                    .AssertRelation(mutation.relation.first,
                                    mutation.relation.second,
                                    mutation.relation.assertion)
                    .ok());
  }
}

void ApplyToService(IntegrationService& service, const std::string& session,
                    const Mutation& mutation) {
  ServiceResponse response;
  if (mutation.is_equivalence) {
    response = service.Execute(
        session, Equiv(mutation.match.first, mutation.match.second));
  } else {
    response = service.Execute(
        session,
        Assert(mutation.relation.first,
               core::AssertionTypeCode(mutation.relation.assertion),
               mutation.relation.second));
  }
  ASSERT_TRUE(response.ok()) << (response.error.has_value()
                                     ? response.error->message
                                     : "");
}

// Fingerprint of an integration result: the full DDL of the integrated
// schema plus every derived-attribute provenance line.
std::string Fingerprint(const core::IntegrationResult& result) {
  std::string print = ecr::ToDdl(result.schema);
  for (const core::DerivedAttributeInfo& info : result.derived_attributes) {
    print += info.owner + "." + info.name + " <-";
    for (const ecr::AttributePath& component : info.components) {
      print += " " + component.ToString();
    }
    print += "\n";
  }
  return print;
}

void RunStress(uint64_t seed, int writers, int readers) {
  workload::GeneratorConfig generator;
  generator.seed = seed;
  generator.num_concepts = 10;
  generator.num_schemas = 3;
  Result<workload::Workload> workload =
      workload::GenerateWorkload(generator);
  ASSERT_TRUE(workload.ok());
  std::vector<Mutation> log = MutationLog(*workload);
  ASSERT_FALSE(log.empty());

  std::string ddl;
  for (const std::string& name : workload->schema_names) {
    ddl += ecr::ToDdl(**workload->catalog.GetSchema(name));
  }

  // --- serial replay: the ground truth to match --------------------------
  engine::Engine serial;
  ASSERT_TRUE(serial.DefineSchema(ddl).ok());
  for (const Mutation& mutation : log) ApplyToEngine(serial, mutation);
  Result<const core::IntegrationResult*> serial_result = serial.Integrate();
  ASSERT_TRUE(serial_result.ok());
  std::string expected = Fingerprint(**serial_result);

  // --- concurrent run ----------------------------------------------------
  ServiceConfig config;
  // Generous deadline: sanitizer builds are an order of magnitude slower
  // and a writer's queueing time counts against its deadline.
  config.default_deadline_ns = 300'000'000'000;
  IntegrationService service(config);
  std::string writer_session = service.OpenSession("stress");
  ASSERT_TRUE(service.Execute(writer_session, Define(ddl)).ok());

  size_t schema_count = workload->schema_names.size();
  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> reader_threads;
  for (int r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      std::string session = service.OpenSession("stress");
      std::mt19937 rng(100 + static_cast<uint32_t>(r));
      int64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const EngineSnapshot> snapshot =
            service.CurrentSnapshot(session);
        ASSERT_NE(snapshot, nullptr);
        // Generations never go backwards, and every snapshot sees the
        // full up-front catalog.
        ASSERT_GE(snapshot->generation, last_generation);
        last_generation = snapshot->generation;
        ASSERT_EQ(snapshot->catalog->SchemaNames().size(), schema_count);
        // Both schema orders, with and without the zero pairs, so the
        // ranking on the registry's ids runs beside the writers' declares.
        size_t a = rng() % schema_count;
        size_t b = (a + 1) % schema_count;
        if (rng() % 2 == 0) std::swap(a, b);
        ServiceResponse response = service.Execute(
            session, commands::Rank(workload->schema_names[a],
                                    workload->schema_names[b],
                                    /*include_zero=*/rng() % 2 == 0));
        ASSERT_TRUE(response.ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      (void)service.CloseSession(session);
    });
  }

  std::vector<std::thread> writer_threads;
  for (int w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      std::string session = service.OpenSession("stress");
      // Round-robin partition of the shared log.
      for (size_t i = static_cast<size_t>(w); i < log.size();
           i += static_cast<size_t>(writers)) {
        ApplyToService(service, session, log[i]);
      }
      (void)service.CloseSession(session);
    });
  }
  for (std::thread& writer : writer_threads) writer.join();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : reader_threads) reader.join();

  // --- the property: concurrent == serial --------------------------------
  ASSERT_TRUE(service.Execute(writer_session, Bare(Op::kIntegrate)).ok());
  std::shared_ptr<const EngineSnapshot> final_snapshot =
      service.CurrentSnapshot(writer_session);
  ASSERT_NE(final_snapshot, nullptr);
  ASSERT_NE(final_snapshot->integration, nullptr);
  EXPECT_EQ(Fingerprint(*final_snapshot->integration), expected)
      << "seed " << seed << ", " << writers << " writers, " << readers
      << " readers, " << reads.load() << " reads";
  EXPECT_GT(reads.load(), 0);
}

TEST(ServiceStressTest, ConcurrentWritersMatchSerialReplay) {
  RunStress(/*seed=*/11, /*writers=*/4, /*readers=*/3);
}

TEST(ServiceStressTest, MoreWritersThanCores) {
  RunStress(/*seed=*/23, /*writers=*/8, /*readers=*/2);
}

TEST(ServiceStressTest, SingleWriterManyReaders) {
  RunStress(/*seed=*/37, /*writers=*/1, /*readers=*/6);
}

}  // namespace
}  // namespace ecrint::service
