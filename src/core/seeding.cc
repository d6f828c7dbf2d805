#include "core/seeding.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace ecrint::core {

void CollectSchemaSeedAssertions(const ecr::Schema& schema,
                                 const SeedOptions& options,
                                 std::vector<Assertion>& out) {
  const int n = schema.num_objects();
  // Each object's reference, built once: every seed copies two of them.
  std::vector<ObjectRef> refs;
  refs.reserve(n);
  for (ecr::ObjectId i = 0; i < n; ++i) {
    refs.push_back(ObjectRef{schema.name(), schema.object(i).name});
  }

  size_t containment = 0;
  if (options.category_containment) {
    for (ecr::ObjectId i = 0; i < n; ++i) {
      containment += schema.object(i).parents.size();
    }
  }
  std::vector<std::pair<ecr::ObjectId, ecr::ObjectId>> disjoint;
  if (options.entity_disjointness) {
    std::vector<ecr::ObjectId> entities =
        schema.ObjectsOfKind(ecr::ObjectKind::kEntitySet);
    // Entity sets sharing a descendant category are NOT disjoint: a
    // category with multiple parents (and every D_ generalization pair over
    // one class in an integrated schema) witnesses common members. Seed
    // disjointness only for pairs with no shared descendant. Descendant
    // sets (each entity included in its own) are bitsets over object ids.
    std::vector<std::vector<ecr::ObjectId>> children(n);
    for (ecr::ObjectId i = 0; i < n; ++i) {
      for (ecr::ObjectId parent : schema.object(i).parents) {
        children[parent].push_back(i);
      }
    }
    const size_t words = (static_cast<size_t>(n) + 63) / 64;
    std::vector<uint64_t> descendants(entities.size() * words, 0);
    std::vector<ecr::ObjectId> stack;
    for (size_t e = 0; e < entities.size(); ++e) {
      uint64_t* bits = &descendants[e * words];
      stack.assign(1, entities[e]);
      while (!stack.empty()) {
        ecr::ObjectId node = stack.back();
        stack.pop_back();
        uint64_t bit = uint64_t{1} << (node & 63);
        if ((bits[node >> 6] & bit) != 0) continue;
        bits[node >> 6] |= bit;
        for (ecr::ObjectId child : children[node]) stack.push_back(child);
      }
    }
    for (size_t i = 0; i < entities.size(); ++i) {
      const uint64_t* bits_i = &descendants[i * words];
      for (size_t j = i + 1; j < entities.size(); ++j) {
        const uint64_t* bits_j = &descendants[j * words];
        bool shared = false;
        for (size_t w = 0; w < words && !shared; ++w) {
          shared = (bits_i[w] & bits_j[w]) != 0;
        }
        if (!shared) disjoint.push_back({entities[i], entities[j]});
      }
    }
  }

  // Callers append several schemas to one list: grow it at least
  // geometrically, so many schemas still cost O(total) moves.
  size_t needed = out.size() + containment + disjoint.size();
  if (needed > out.capacity()) {
    out.reserve(std::max(needed, 2 * out.capacity()));
  }
  if (options.category_containment) {
    for (ecr::ObjectId i = 0; i < n; ++i) {
      for (ecr::ObjectId parent : schema.object(i).parents) {
        out.push_back(
            Assertion{refs[i], refs[parent], AssertionType::kContainedIn});
      }
    }
  }
  for (const auto& [a, b] : disjoint) {
    out.push_back(
        Assertion{refs[a], refs[b], AssertionType::kDisjointNonintegrable});
  }
}

Status SeedSchemaRelations(AssertionStore& store, const ecr::Schema& schema,
                           const SeedOptions& options) {
  std::vector<Assertion> seeds;
  CollectSchemaSeedAssertions(schema, options, seeds);
  return store.AssertBatch(seeds).status();
}

}  // namespace ecrint::core
