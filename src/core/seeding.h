#ifndef ECRINT_CORE_SEEDING_H_
#define ECRINT_CORE_SEEDING_H_

#include <vector>

#include "common/status.h"
#include "ecr/schema.h"
#include "core/assertion_store.h"

namespace ecrint::core {

// Which structural facts of a component schema to preload into an
// AssertionStore before DDA assertions are checked.
struct SeedOptions {
  // category C of P  =>  C contained-in P. Lets the closure combine
  // cross-schema assertions with within-schema IS-A structure.
  bool category_containment = true;
  // The ECR model makes distinct entity sets of one schema disjoint; seed
  // that as disjoint-nonintegrable so contradictory cross-schema assertions
  // (e.g. equating one foreign class with two disjoint local ones) are
  // caught. Never connects a cluster.
  bool entity_disjointness = true;
};

// Appends the schema's structural seeds to `out` in the order SeedSchemas
// asserts them, each naming its two structures by their ObjectIds in
// `schema`: every category's containment in each parent, then the
// disjointness of every pair of entity sets without a shared descendant.
void CollectSchemaSeeds(const ecr::Schema& schema, const SeedOptions& options,
                        std::vector<IdAssertion>& out);

// Preloads the structural relations of `schemas`, in order, as one batch
// (a schema listed twice is seeded twice). The store ends exactly as an
// Assert() loop over the seeds would leave it, but each structure is named
// and interned once. Returns kConflict if the store's existing assertions
// contradict the schema structure.
Status SeedSchemas(AssertionStore& store,
                   const std::vector<const ecr::Schema*>& schemas,
                   const SeedOptions& options = {});

}  // namespace ecrint::core

#endif  // ECRINT_CORE_SEEDING_H_
