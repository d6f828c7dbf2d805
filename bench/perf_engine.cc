// Cost of one interactive DDA edit at integration time: a full pipeline
// replay (what every frontend hand-wired before the Engine existed) versus
// the Engine's incremental path, which extends the cached seeded closure by
// the one appended assertion and re-runs only lattice/placement/assembly.
// The gap is the paper's "tool stays interactive" claim at workload scale.

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "paper_fixtures.h"
#include "workload/generator.h"

namespace ecrint {
namespace {

workload::Workload MakeWorkload(int concepts) {
  workload::GeneratorConfig config;
  config.num_concepts = concepts;
  config.num_schemas = 2;
  config.concept_coverage = 0.9;
  Result<workload::Workload> workload = workload::GenerateWorkload(config);
  if (!workload.ok()) std::abort();
  return *std::move(workload);
}

// The workload's schemas, ground-truth equivalences, and ground-truth
// assertions loaded into an Engine — the state after the DDA's session.
engine::Engine LoadEngine(const workload::Workload& w) {
  engine::Engine engine;
  for (const std::string& name : w.schema_names) {
    Result<const ecr::Schema*> schema = w.catalog.GetSchema(name);
    if (!schema.ok() || !engine.AddSchema(**schema).ok()) std::abort();
  }
  for (const workload::TrueAttributeMatch& match : w.attribute_matches) {
    (void)engine.AssertEquivalence(match.first, match.second);
  }
  for (const workload::TrueObjectRelation& relation : w.object_relations) {
    if (!engine.AssertRelation(relation.first, relation.second,
                               relation.assertion)
             .ok()) {
      std::abort();
    }
  }
  return engine;
}

void BM_EngineFullRebuild(benchmark::State& state) {
  workload::Workload w = MakeWorkload(static_cast<int>(state.range(0)));
  engine::Engine engine = LoadEngine(w);
  for (auto _ : state) {
    if (!engine.FullRebuild().ok()) std::abort();
    Result<const core::IntegrationResult*> result = engine.Integrate();
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineFullRebuild)->Arg(50)->Arg(100)->Arg(250);

void BM_EngineIncrementalEdit(benchmark::State& state) {
  workload::Workload w = MakeWorkload(static_cast<int>(state.range(0)));
  engine::Engine engine = LoadEngine(w);
  int last = engine.assertions().num_user_assertions() - 1;
  if (last < 0) std::abort();
  core::Assertion edit = engine.assertions().user_assertion(last);
  for (auto _ : state) {
    // Un-time the rewind: withdraw the assertion (epoch bump drops the
    // seeded cache) and integrate once to rebuild the cache at n-1 edits.
    state.PauseTiming();
    if (!engine.RetractRelation(last).ok()) std::abort();
    if (!engine.Integrate().ok()) std::abort();
    state.ResumeTiming();
    // Timed: what the DDA waits for after one more Screen 8 assertion.
    if (!engine.AssertRelation(edit.first, edit.second, edit.type).ok()) {
      std::abort();
    }
    Result<const core::IntegrationResult*> result = engine.Integrate();
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineIncrementalEdit)->Arg(50)->Arg(100)->Arg(250);

}  // namespace
}  // namespace ecrint

BENCHMARK_MAIN();
