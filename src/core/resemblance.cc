#include "core/resemblance.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace ecrint::core {

namespace {

// One side of the matrix: the catalog's structures of one kind in one
// schema, read by ordinal.
struct CatalogSide {
  const ecr::Schema& schema;
  StructureKind kind;

  int size(StructureKind k) const {
    return k == StructureKind::kObjectClass ? schema.num_objects()
                                            : schema.num_relationships();
  }
  int size() const { return size(kind); }
  const std::string& NameAt(StructureKind k, int i) const {
    return k == StructureKind::kObjectClass ? schema.object(i).name
                                            : schema.relationship(i).name;
  }
  const std::string& NameAt(int i) const { return NameAt(kind, i); }
  int AttributeCountAt(int i) const {
    return static_cast<int>(kind == StructureKind::kObjectClass
                                ? schema.object(i).attributes.size()
                                : schema.relationship(i).attributes.size());
  }
};

// Fills one side's structures, attribute counts and name ranks, and points
// slot[s] at `offset` + the row of every registered structure s of that
// schema that the catalog still has (by name, as a lookup would find it).
void MapSide(const CatalogSide& side, const EquivalenceMap& map, int offset,
             std::vector<ObjectRef>& refs, std::vector<int>& attribute_counts,
             std::vector<int>& ranks, std::vector<int>& slot) {
  int n = side.size();
  refs.reserve(n);
  attribute_counts.reserve(n);
  for (int i = 0; i < n; ++i) {
    refs.push_back({side.schema.name(), side.NameAt(i)});
    attribute_counts.push_back(side.AttributeCountAt(i));
  }

  // A catalog that changed since the map was created is looked up by name;
  // the index is built only then.
  std::unordered_map<std::string_view, int> by_name;
  auto row_named = [&](const std::string& name) {
    if (by_name.empty()) {
      by_name.reserve(n);
      for (int i = 0; i < n; ++i) by_name.emplace(side.NameAt(i), i);
    }
    auto it = by_name.find(name);
    return it == by_name.end() ? -1 : it->second;
  };
  bool ranked = false;
  for (const EquivalenceMap::SchemaEntry& schema : map.schemas()) {
    if (schema.name != side.schema.name()) continue;
    int begin = schema.Begin(side.kind);
    bool unchanged = schema.End(side.kind) - begin == n;
    for (int s = schema.objects_begin; s < schema.end; ++s) {
      const EquivalenceMap::StructureEntry& entry = map.StructureAt(s);
      bool in_place = entry.ordinal < side.size(entry.kind) &&
                      side.NameAt(entry.kind, entry.ordinal) ==
                          entry.ref.object;
      if (entry.kind == side.kind) {
        unchanged = unchanged && in_place;
        slot[s] = offset + (in_place ? entry.ordinal
                                     : row_named(entry.ref.object));
      } else if (!in_place) {
        // The name left the other kind; a schema never names an object
        // class and a relationship set alike, so only then can it be here.
        slot[s] = offset + row_named(entry.ref.object);
      }
      if (slot[s] < offset) slot[s] = -1;
    }
    if (unchanged && !ranked) {
      ranks.resize(n);
      for (int i = 0; i < n; ++i) {
        ranks[i] = map.StructureAt(begin + i).name_rank;
      }
      ranked = true;
    }
  }
  if (!ranked) {
    // The registry's name ranks do not describe this catalog: rank by name.
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&side](int a, int b) {
      return side.NameAt(a) < side.NameAt(b);
    });
    ranks.resize(n);
    for (int r = 0; r < n; ++r) ranks[order[r]] = r;
  }
}

// Appends a unit count for `index` to a small (index, count) accumulator.
void Bump(std::vector<std::pair<int, int>>& hits, int index) {
  for (auto& [i, count] : hits) {
    if (i == index) {
      ++count;
      return;
    }
  }
  hits.emplace_back(index, 1);
}

}  // namespace

Result<OcsMatrix> OcsMatrix::Create(const ecr::Catalog& catalog,
                                    const EquivalenceMap& equivalence,
                                    const std::string& schema1,
                                    const std::string& schema2,
                                    StructureKind kind) {
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s1, catalog.GetSchema(schema1));
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s2, catalog.GetSchema(schema2));
  if (schema1 == schema2) {
    return InvalidArgumentError(
        "OCS matrix needs two distinct schemas, got '" + schema1 + "' twice");
  }
  OcsMatrix matrix;
  // slot[s]: registered structure s's row r, or its column c as rows + c,
  // or -1 when it is on neither side.
  std::vector<int> slot(equivalence.num_structures(), -1);
  MapSide({*s1, kind}, equivalence, 0, matrix.rows_,
          matrix.row_attribute_counts_, matrix.row_ranks_, slot);
  int rows = static_cast<int>(matrix.rows_.size());
  MapSide({*s2, kind}, equivalence, rows, matrix.columns_,
          matrix.column_attribute_counts_, matrix.column_ranks_, slot);

  // Only a class with members on both sides can make a cell nonzero, so
  // instead of probing every (row, column) pair, walk the nontrivial
  // classes once and scatter each class's per-structure member counts: a
  // class with k_r members in row structure r and k_c in column structure c
  // contributes k_r * k_c equivalent pairs to that cell.
  std::vector<std::pair<int, int>> row_hits;     // (row, members)
  std::vector<std::pair<int, int>> column_hits;  // (column, members)
  std::vector<Cell>& cells = matrix.cells_;
  equivalence.ForEachNontrivialClass([&](const std::vector<int>& members) {
    row_hits.clear();
    column_hits.clear();
    for (int id : members) {
      int at = slot[equivalence.StructureOf(id)];
      if (at < 0) continue;
      if (at < rows) {
        Bump(row_hits, at);
      } else {
        Bump(column_hits, at - rows);
      }
    }
    for (auto& [r, kr] : row_hits) {
      for (auto& [c, kc] : column_hits) cells.push_back({r, c, kr * kc});
    }
  });
  // Merge the contributions per cell.
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.row != b.row ? a.row < b.row : a.column < b.column;
  });
  size_t kept = 0;
  for (const Cell& cell : cells) {
    if (kept > 0 && cells[kept - 1].row == cell.row &&
        cells[kept - 1].column == cell.column) {
      cells[kept - 1].count += cell.count;
    } else {
      cells[kept++] = cell;
    }
  }
  cells.resize(kept);
  return matrix;
}

int OcsMatrix::Count(int row, int column) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), std::make_pair(row, column),
      [](const Cell& cell, const std::pair<int, int>& key) {
        return std::make_pair(cell.row, cell.column) < key;
      });
  return it != cells_.end() && it->row == row && it->column == column
             ? it->count
             : 0;
}

ObjectPair OcsMatrix::MakePair(int row, int column, int count) const {
  ObjectPair pair;
  pair.first = rows_[row];
  pair.second = columns_[column];
  pair.equivalent_attributes = count;
  pair.smaller_attribute_count =
      std::min(row_attribute_counts_[row], column_attribute_counts_[column]);
  int denominator = count + pair.smaller_attribute_count;
  pair.attribute_ratio =
      denominator == 0 ? 0.0 : static_cast<double>(count) / denominator;
  return pair;
}

std::vector<ObjectPair> OcsMatrix::Ranked(size_t limit,
                                          bool include_zero) const {
  // Strict total order: ratio desc, then names (a rank per side), so sorts
  // are deterministic and any k-prefix is unambiguous. Ties go in name
  // order, matching the paper's Screen 8 (the equal-ratio Department and
  // Student pairs list Department first).
  struct Candidate {
    double ratio;
    int row_rank;
    int column_rank;
    int cell;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    const Cell& cell = cells_[i];
    int smaller = std::min(row_attribute_counts_[cell.row],
                           column_attribute_counts_[cell.column]);
    candidates.push_back(
        {static_cast<double>(cell.count) / (cell.count + smaller),
         row_ranks_[cell.row], column_ranks_[cell.column],
         static_cast<int>(i)});
  }
  auto before = [](const Candidate& a, const Candidate& b) {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;
    if (a.row_rank != b.row_rank) return a.row_rank < b.row_rank;
    return a.column_rank < b.column_rank;
  };
  if (limit < candidates.size()) {
    std::partial_sort(candidates.begin(), candidates.begin() + limit,
                      candidates.end(), before);
    candidates.resize(limit);
  } else {
    std::sort(candidates.begin(), candidates.end(), before);
  }

  size_t rows = rows_.size();
  size_t columns = columns_.size();
  size_t total = include_zero ? rows * columns : cells_.size();
  std::vector<ObjectPair> pairs;
  pairs.reserve(std::min(limit, total));
  for (const Candidate& candidate : candidates) {
    const Cell& cell = cells_[candidate.cell];
    pairs.push_back(MakePair(cell.row, cell.column, cell.count));
  }
  if (!include_zero || pairs.size() >= limit) return pairs;

  // Every zero pair has ratio 0, below every nonzero pair's, so the zero
  // pairs follow in name order: by row name, then by column name.
  std::vector<int> row_by_rank(rows);
  std::vector<int> column_by_rank(columns);
  for (size_t r = 0; r < rows; ++r) row_by_rank[row_ranks_[r]] = r;
  for (size_t c = 0; c < columns; ++c) column_by_rank[column_ranks_[c]] = c;
  std::vector<char> nonzero(rows * columns, 0);
  for (const Cell& cell : cells_) {
    nonzero[static_cast<size_t>(cell.row) * columns + cell.column] = 1;
  }
  for (int r : row_by_rank) {
    for (int c : column_by_rank) {
      if (pairs.size() >= limit) return pairs;
      if (!nonzero[static_cast<size_t>(r) * columns + c]) {
        pairs.push_back(MakePair(r, c, 0));
      }
    }
  }
  return pairs;
}

std::vector<ObjectPair> OcsMatrix::RankedPairs(bool include_zero) const {
  return Ranked(std::numeric_limits<size_t>::max(), include_zero);
}

std::vector<ObjectPair> OcsMatrix::TopKPairs(int k, bool include_zero) const {
  if (k <= 0) return {};
  return Ranked(static_cast<size_t>(k), include_zero);
}

Result<std::vector<ObjectPair>> RankObjectPairs(
    const ecr::Catalog& catalog, const EquivalenceMap& equivalence,
    const std::string& schema1, const std::string& schema2,
    StructureKind kind, bool include_zero) {
  ECRINT_ASSIGN_OR_RETURN(
      OcsMatrix matrix,
      OcsMatrix::Create(catalog, equivalence, schema1, schema2, kind));
  return matrix.RankedPairs(include_zero);
}

}  // namespace ecrint::core
