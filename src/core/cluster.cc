#include "core/cluster.h"

#include <algorithm>
#include <numeric>

namespace ecrint::core {

std::vector<Cluster> BuildClusters(const AssertionStore& store,
                                   const std::vector<ObjectRef>& universe) {
  std::vector<int> ids;
  ids.reserve(universe.size());
  for (const ObjectRef& ref : universe) ids.push_back(store.IdOf(ref));
  std::vector<int> order(universe.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return universe[a] < universe[b]; });
  return BuildClusters(store, universe, ids, order);
}

std::vector<Cluster> BuildClusters(const AssertionStore& store,
                                   const std::vector<ObjectRef>& universe,
                                   const std::vector<int>& ids,
                                   const std::vector<int>& order) {
  int n = static_cast<int>(universe.size());
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // First universe position of each store id. A structure listed twice is
  // integrating with itself, so its positions join at once.
  std::vector<int> first_at(store.num_objects(), -1);
  for (int i = 0; i < n; ++i) {
    if (ids[i] < 0) continue;
    if (first_at[ids[i]] < 0) {
      first_at[ids[i]] = i;
    } else {
      parent[find(i)] = find(first_at[ids[i]]);
    }
  }
  // Integrating pairs: those pinned to one relation other than
  // disjointness, read from the store's pinned-pair index, plus disjoint
  // pairs whose latest assertion is disjoint-integrable, all of which are
  // listed.
  for (int i = 0; i < n; ++i) {
    int a = ids[i];
    if (a < 0 || first_at[a] != i) continue;
    store.ForEachPinnedAbove(a, [&](int b) {
      int j = first_at[b];
      if (j >= 0) parent[find(i)] = find(j);
    });
  }
  for (auto [a, b] : store.disjoint_integrable_pairs()) {
    int i = first_at[a];
    int j = first_at[b];
    if (i >= 0 && j >= 0 && store.IsIntegratingAt(a, b)) {
      parent[find(i)] = find(j);
    }
  }

  // Walking the positions in name order sorts every cluster's members and
  // orders the clusters by their first member in one pass.
  std::vector<int> cluster_of_root(n, -1);
  std::vector<Cluster> clusters;
  for (int i : order) {
    int& c = cluster_of_root[find(i)];
    if (c < 0) {
      c = static_cast<int>(clusters.size());
      clusters.emplace_back();
    }
    clusters[c].members.push_back(universe[i]);
  }
  return clusters;
}

}  // namespace ecrint::core
