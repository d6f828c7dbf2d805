#ifndef ECRINT_CORE_CLUSTER_H_
#define ECRINT_CORE_CLUSTER_H_

#include <vector>

#include "core/assertion_store.h"
#include "core/object_ref.h"

namespace ecrint::core {

// A group of structures connected by integrating assertions — the paper's
// unit of integration work ("a cluster is a group of related objects that
// are connected by any assertion except disjoint nonintegrable").
struct Cluster {
  std::vector<ObjectRef> members;  // sorted
};

// Partitions `universe` into clusters using the store's established
// relations. Structures with no integrating connection form singleton
// clusters. Members of `universe` unknown to the store are kept (as
// singletons); structures known to the store but absent from `universe`
// are ignored.
std::vector<Cluster> BuildClusters(const AssertionStore& store,
                                   const std::vector<ObjectRef>& universe);

// The same, for callers that already resolved each universe member's
// store id (AssertionStore::IdOf, -1 when unknown) as `ids` and listed the
// universe's positions in name (ObjectRef) order as `order`.
std::vector<Cluster> BuildClusters(const AssertionStore& store,
                                   const std::vector<ObjectRef>& universe,
                                   const std::vector<int>& ids,
                                   const std::vector<int>& order);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_CLUSTER_H_
