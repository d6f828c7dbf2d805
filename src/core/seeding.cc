#include "core/seeding.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace ecrint::core {

void CollectSchemaSeeds(const ecr::Schema& schema, const SeedOptions& options,
                        std::vector<IdAssertion>& out) {
  const int n = schema.num_objects();
  if (options.category_containment) {
    for (ecr::ObjectId i = 0; i < n; ++i) {
      for (ecr::ObjectId parent : schema.object(i).parents) {
        out.push_back({i, parent, AssertionType::kContainedIn});
      }
    }
  }
  if (!options.entity_disjointness) return;
  std::vector<ecr::ObjectId> entities =
      schema.ObjectsOfKind(ecr::ObjectKind::kEntitySet);
  // Entity sets sharing a descendant category are NOT disjoint: a category
  // with multiple parents (and every D_ generalization pair over one class
  // in an integrated schema) witnesses common members. Seed disjointness
  // only for pairs with no shared descendant. Descendant sets (each entity
  // included in its own) are bitsets over object ids.
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
      if (!shared) {
        out.push_back({entities[i], entities[j],
                       AssertionType::kDisjointNonintegrable});
      }
    }
  }
}

Status SeedSchemas(AssertionStore& store,
                   const std::vector<const ecr::Schema*>& schemas,
                   const SeedOptions& options) {
  // Every structure of each distinct schema, named once; a seed names its
  // two by their place in `refs`, the schema's ObjectId past its base.
  std::vector<ObjectRef> refs;
  std::vector<std::pair<const ecr::Schema*, int32_t>> bases;
  std::vector<IdAssertion> seeds;
  for (const ecr::Schema* schema : schemas) {
    auto seen = std::find_if(bases.begin(), bases.end(), [schema](auto& b) {
      return b.first == schema;
    });
    int32_t base;
    if (seen != bases.end()) {
      base = seen->second;
    } else {
      base = static_cast<int32_t>(refs.size());
      bases.push_back({schema, base});
      for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
        refs.push_back(ObjectRef{schema->name(), schema->object(i).name});
      }
    }
    size_t from = seeds.size();
    CollectSchemaSeeds(*schema, options, seeds);
    for (size_t k = from; k < seeds.size(); ++k) {
      seeds[k].first += base;
      seeds[k].second += base;
    }
  }
  return store.AssertBatch(refs, seeds).status();
}

}  // namespace ecrint::core
