// Runs the full pipeline plus one incremental edit round on the 250-class
// workload and prints the Engine's phase trace as JSON on stdout (all
// diagnostics go to stderr). bench/run_benches.sh embeds the JSON into
// BENCH_engine.json so the recorded numbers carry the phase breakdown and
// the cache-hit/recompute counters alongside the wall times.

#include <cstdlib>
#include <iostream>

#include "engine/engine.h"
#include "paper_fixtures.h"
#include "workload/generator.h"

using namespace ecrint;  // NOLINT: harness brevity

int main() {
  workload::GeneratorConfig config;
  config.num_concepts = 250;
  config.num_schemas = 2;
  config.concept_coverage = 0.9;
  Result<workload::Workload> workload = workload::GenerateWorkload(config);
  if (!workload.ok()) {
    std::cerr << "generate: " << workload.status() << "\n";
    return 1;
  }

  engine::Engine engine;
  for (const std::string& name : workload->schema_names) {
    Result<const ecr::Schema*> schema = workload->catalog.GetSchema(name);
    if (!schema.ok() || !engine.AddSchema(**schema).ok()) return 1;
  }
  for (const workload::TrueAttributeMatch& match :
       workload->attribute_matches) {
    (void)engine.AssertEquivalence(match.first, match.second);
  }
  for (const workload::TrueObjectRelation& relation :
       workload->object_relations) {
    if (!engine.AssertRelation(relation.first, relation.second,
                               relation.assertion)
             .ok()) {
      return 1;
    }
  }

  // Full pipeline, then one incremental edit round: retract the last
  // assertion (forces a full re-seed on the next Integrate), integrate,
  // re-assert it, integrate again — the last call must take the
  // incremental path.
  if (!engine.Integrate().ok()) return 1;
  int last = engine.assertions().num_user_assertions() - 1;
  core::Assertion edit = engine.assertions().user_assertion(last);
  if (!engine.RetractRelation(last).ok()) return 1;
  if (!engine.Integrate().ok()) return 1;
  if (!engine.AssertRelation(edit.first, edit.second, edit.type).ok()) {
    return 1;
  }
  if (!engine.Integrate().ok()) return 1;

  const auto& phases = engine.trace().phases();
  auto integrate = phases.find("integrate");
  if (integrate == phases.end() ||
      integrate->second.counters.count("incremental_reuses") == 0) {
    std::cerr << "SHAPE MISMATCH: no incremental reuse recorded\n";
    return 1;
  }
  std::cerr << "SHAPE OK: incremental path exercised\n";
  std::cout << engine.TraceJson() << "\n";
  return 0;
}
