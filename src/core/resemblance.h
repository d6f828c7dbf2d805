#ifndef ECRINT_CORE_RESEMBLANCE_H_
#define ECRINT_CORE_RESEMBLANCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ecr/catalog.h"
#include "core/equivalence.h"
#include "core/object_ref.h"

namespace ecrint::core {

// One candidate pair of structures, scored by the paper's resemblance
// heuristic. `attribute_ratio` is
//     #equivalent / (#equivalent + #attributes of the smaller structure)
// so 0.5 means every attribute of the smaller structure has an equivalent
// in the other (the maximum), exactly as Screen 8 explains.
struct ObjectPair {
  ObjectRef first;
  ObjectRef second;
  int equivalent_attributes = 0;
  int smaller_attribute_count = 0;
  double attribute_ratio = 0.0;
};

// The derived Object Class Similarity matrix for two schemas: the number of
// equivalent attributes for every cross-schema structure pair of one kind.
//
// The build never probes the dense R×C pair grid: it walks the equivalence
// map's nontrivial classes once and scatters each class's per-structure
// member counts into the (few) cells that can be nonzero, so it costs
// O(total attributes + matches). Above a size threshold the class scatter
// and the pair scoring fan out over the shared thread pool; below it (and
// on all paper-sized fixtures) everything runs on the calling thread, and
// the parallel path accumulates integer partials in a fixed chunk order so
// results are bit-identical either way.
class OcsMatrix {
 public:
  // Builds the matrix for structures of `kind` across `schema1` x `schema2`.
  static Result<OcsMatrix> Create(const ecr::Catalog& catalog,
                                  const EquivalenceMap& equivalence,
                                  const std::string& schema1,
                                  const std::string& schema2,
                                  StructureKind kind);

  const std::vector<ObjectRef>& rows() const { return rows_; }
  const std::vector<ObjectRef>& columns() const { return columns_; }

  int Count(int row, int column) const {
    return counts_[row * static_cast<int>(columns_.size()) + column];
  }

  // Every pair with at least one equivalent attribute, ordered by descending
  // attribute ratio (the paper's "likelihood of being integrable with
  // stronger assertions"), tie-broken by names alone (first structure, then
  // second), as Screen 8 lists its equal-ratio pairs: two pairs with the
  // same ratio keep name order whatever their equivalent-attribute counts.
  // Set `include_zero` to list all pairs.
  std::vector<ObjectPair> RankedPairs(bool include_zero = false) const;

  // The first `k` pairs of RankedPairs() without paying a full sort
  // (std::partial_sort): interactive suggestion over large matrices only
  // ever shows a screenful. The comparator is a strict total order, so the
  // prefix is identical to RankedPairs().
  std::vector<ObjectPair> TopKPairs(int k, bool include_zero = false) const;

 private:
  // Unsorted pair construction shared by RankedPairs and TopKPairs.
  std::vector<ObjectPair> CollectPairs(bool include_zero) const;

  // Own-attribute count per structure (what the ratio denominator counts).
  std::vector<int> row_attribute_counts_;
  std::vector<int> column_attribute_counts_;
  std::vector<ObjectRef> rows_;
  std::vector<ObjectRef> columns_;
  std::vector<int> counts_;
};

// The full phase-2 output for one structure kind: Screen 8's ranked list.
Result<std::vector<ObjectPair>> RankObjectPairs(
    const ecr::Catalog& catalog, const EquivalenceMap& equivalence,
    const std::string& schema1, const std::string& schema2,
    StructureKind kind, bool include_zero = false);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_RESEMBLANCE_H_
