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
// The build never probes the dense R×C pair grid, and never hashes a name:
// it maps the equivalence registry's structures of the two schemas to rows
// and columns once, then walks the map's nontrivial classes and scatters
// each class's per-structure member counts into the (few) cells that can
// be nonzero, so it costs O(structures + class members + matches). Only
// the nonzero cells are stored. Ranking sorts them on ints (ratio, then
// the row's and the column's name rank) and builds ObjectPairs last.
//
// Rows and columns always come from the catalog. A map created before the
// catalog changed (a form edit added, dropped or reordered structures)
// ranks as if looked up by name: a registered structure the catalog no
// longer has counts nowhere, one whose ordinal moved is found by its name.
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

  // Equivalent attributes of one cell; a binary search over the nonzero
  // cells.
  int Count(int row, int column) const;

  // Every pair with at least one equivalent attribute, ordered by descending
  // attribute ratio (the paper's "likelihood of being integrable with
  // stronger assertions"), tie-broken by names alone (first structure, then
  // second), as Screen 8 lists its equal-ratio pairs: two pairs with the
  // same ratio keep name order whatever their equivalent-attribute counts.
  // Set `include_zero` to list all pairs.
  std::vector<ObjectPair> RankedPairs(bool include_zero = false) const;

  // The first `k` pairs of RankedPairs() without paying a full sort
  // (std::partial_sort): interactive suggestion over large matrices only
  // ever shows a screenful. The order is a strict total order, so the
  // prefix is identical to RankedPairs().
  std::vector<ObjectPair> TopKPairs(int k, bool include_zero = false) const;

 private:
  // A cell with a nonzero count.
  struct Cell {
    int row = 0;
    int column = 0;
    int count = 0;
  };

  // The first `limit` pairs in ranking order.
  std::vector<ObjectPair> Ranked(size_t limit, bool include_zero) const;
  ObjectPair MakePair(int row, int column, int count) const;

  std::vector<ObjectRef> rows_;
  std::vector<ObjectRef> columns_;
  // Own-attribute count per structure (what the ratio denominator counts).
  std::vector<int> row_attribute_counts_;
  std::vector<int> column_attribute_counts_;
  // Each row's and column's position in name order: the ranking tie-break.
  std::vector<int> row_ranks_;
  std::vector<int> column_ranks_;
  std::vector<Cell> cells_;  // nonzero cells in (row, column) order
};

// The full phase-2 output for one structure kind: Screen 8's ranked list.
Result<std::vector<ObjectPair>> RankObjectPairs(
    const ecr::Catalog& catalog, const EquivalenceMap& equivalence,
    const std::string& schema1, const std::string& schema2,
    StructureKind kind, bool include_zero = false);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_RESEMBLANCE_H_
