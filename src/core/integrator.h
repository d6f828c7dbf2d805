#ifndef ECRINT_CORE_INTEGRATOR_H_
#define ECRINT_CORE_INTEGRATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ecr/catalog.h"
#include "core/assertion_store.h"
#include "core/equivalence.h"
#include "core/integration_result.h"

namespace ecrint::core {

// Knobs for phase 4. Defaults reproduce the paper's behaviour.
struct IntegrationOptions {
  // Preload within-schema structure into the assertion closure (see
  // core/seeding.h). Disable to integrate exactly and only from DDA input.
  bool seed_category_containment = true;
  bool seed_entity_disjointness = true;
  // Drop IS-A edges implied by other edges (a ⊂ b ⊂ c keeps only a→b→c,
  // not a→c). The paper's lattices are reduced.
  bool transitive_reduction = true;
  // Length of the name fragments in generated names (D_Stud_Facu uses 4).
  int name_prefix_length = 4;
  // Name of the produced schema.
  std::string result_name = "integrated";
};

// Integrates the named component schemas into one schema, following the
// paper's phase 4:
//   * "equals" groups merge into E_ classes,
//   * "contains"/"contained-in" pairs become IS-A (category) edges,
//   * "may be" (overlap) and "disjoint integrable" pairs get a D_ derived
//     generalization with the originals as categories,
//   * equivalent attributes merge into D_ derived attributes placed at the
//     most specific class that generalizes all their owners,
//   * relationship sets integrate analogously (participants generalized
//     through the object lattice, cardinality constraints widened),
//   * component↔integrated mappings are emitted for request translation.
//
// Works n-ary: any number of schemas ≥ 1 (the paper's tool integrates two
// per run; the methodology — and this function — handles n at once).
// `assertions` is taken by value because within-schema structure is seeded
// into the closure first; pass your store as-is.
Result<IntegrationResult> Integrate(const ecr::Catalog& catalog,
                                    const std::vector<std::string>& schemas,
                                    const EquivalenceMap& equivalence,
                                    AssertionStore assertions,
                                    const IntegrationOptions& options = {});

// Seeds within-schema structure (category containment, entity disjointness
// per `options`) of the named schemas into `assertions`. This is the first —
// and by far the most expensive — step of Integrate; callers that re-run
// integration after small assertion edits can seed once, keep the seeded
// store, and call IntegrateSeeded. Contradictions between DDA assertions and
// component structure surface here.
Status SeedForIntegration(AssertionStore& assertions,
                          const ecr::Catalog& catalog,
                          const std::vector<std::string>& schemas,
                          const IntegrationOptions& options = {});

// Wall time IntegrateSeeded spends in each of its sub-phases. The engine
// charges these to its phase trace as integrate.<sub-phase>.
struct IntegrateTimings {
  int64_t lattice_ns = 0;     // universes, EQ merging, IS-A edges, D_ nodes
  int64_t clusters_ns = 0;    // object and relationship clusters
  int64_t attributes_ns = 0;  // derived-attribute merging and placement
  int64_t assemble_ns = 0;    // the integrated schema's classes and sets
  int64_t mappings_ns = 0;    // provenance and component mappings
};

// The part of phase 4 that no assertion changes: both component universes
// (every structure of the listed schemas, with its store id), each
// universe's name order, each structure's attributes in name order, and the
// attribute-table entry of every attribute the equivalence registry holds.
// IntegrateSeeded builds one per call; an Engine keeps one from integrate
// to integrate, rebuilding it only when the catalog, the schema list or
// the equivalence registry changes, and syncing its store ids with SyncIds.
//
// A plan points into the catalog's schemas, so it is only valid while the
// catalog is unchanged.
class IntegrationPlan {
 public:
  // Fails, like IntegrateSeeded, on an empty list or an unknown schema.
  static Result<IntegrationPlan> Build(const ecr::Catalog& catalog,
                                       const std::vector<std::string>& schemas,
                                       const EquivalenceMap& equivalence);

  IntegrationPlan(IntegrationPlan&&) noexcept;
  IntegrationPlan& operator=(IntegrationPlan&&) noexcept;
  ~IntegrationPlan();

  const std::vector<std::string>& schemas() const;
  // Whether the plan resolved the registry of `equivalence`: the map it was
  // built from or any copy of it. The plan holds that registry, so a new
  // map can never pass for it.
  bool BuiltFor(const EquivalenceMap& equivalence) const;

  // Brings every structure's store id up to what store.IdOf returns.
  // `store_serial` names the store: pass a new value whenever another store
  // takes the place of the last one synced. While the serial and the
  // store's object_forgets() stay the same the store has only grown, so
  // only structures it did not know at the last sync are looked up again.
  void SyncIds(const AssertionStore& store, int64_t store_serial);

 private:
  struct Impl;
  explicit IntegrationPlan(std::unique_ptr<Impl> impl);
  friend Result<IntegrationResult> IntegrateSeeded(
      const IntegrationPlan& plan, const EquivalenceMap& equivalence,
      const AssertionStore& seeded, const IntegrationOptions& options,
      IntegrateTimings* timings);

  std::unique_ptr<Impl> impl_;
};

// Phase 4 proper, over an already-seeded closure. `seeded` must hold the
// user assertions plus the output of SeedForIntegration for the same
// catalog/schemas/options; because path-consistency closure is confluent
// (the fixpoint is the intersection of all derivable constraints, so it is
// independent of assertion order), a cached seeded store extended by one
// incremental Assert yields exactly the matrix a full replay would.
// `timings`, when given, receives the sub-phase wall times of this call.
// Builds an IntegrationPlan for this one call.
Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& seeded,
    const IntegrationOptions& options = {},
    IntegrateTimings* timings = nullptr);

// The same on a plan built for `equivalence` whose ids were last synced
// with `seeded` (IntegrationPlan::SyncIds).
Result<IntegrationResult> IntegrateSeeded(
    const IntegrationPlan& plan, const EquivalenceMap& equivalence,
    const AssertionStore& seeded, const IntegrationOptions& options = {},
    IntegrateTimings* timings = nullptr);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_INTEGRATOR_H_
