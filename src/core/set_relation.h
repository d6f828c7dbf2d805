#ifndef ECRINT_CORE_SET_RELATION_H_
#define ECRINT_CORE_SET_RELATION_H_

#include <array>
#include <cstdint>
#include <string>

namespace ecrint::core {

// The five possible relations between the (non-empty) domains of two object
// classes — the semantic content of the paper's assertions. SUB/SUP are
// proper containment and kOverlap is proper overlap (shared elements plus
// private elements on both sides), so the five cases are mutually exclusive
// and jointly exhaustive.
enum class SetRelation : uint8_t {
  kEqual = 0,
  kSubset = 1,    // left domain properly contained in right
  kSuperset = 2,  // left domain properly contains right
  kOverlap = 3,
  kDisjoint = 4,
};

inline constexpr int kNumSetRelations = 5;

const char* SetRelationName(SetRelation relation);

// A set of still-possible relations between two domains, as a 5-bit mask.
// The assertion store starts every pair at kAnyRelation and refines it as
// the DDA asserts and the closure derives.
using RelationSet = uint8_t;

inline constexpr RelationSet kNoRelation = 0;
inline constexpr RelationSet kAnyRelation = 0b11111;

// Number of distinct RelationSet values; the closure kernel's compose and
// converse tables are indexed by the full 5-bit set, not by single
// relations, so one popped worklist edge refines a whole relation row with
// plain byte-table lookups.
inline constexpr int kNumRelationSets = 1 << kNumSetRelations;  // 32

constexpr RelationSet MaskOf(SetRelation relation) {
  return static_cast<RelationSet>(1u << static_cast<int>(relation));
}

constexpr bool Contains(RelationSet set, SetRelation relation) {
  return (set & MaskOf(relation)) != 0;
}

namespace set_relation_detail {

constexpr RelationSet kEq = MaskOf(SetRelation::kEqual);
constexpr RelationSet kSub = MaskOf(SetRelation::kSubset);
constexpr RelationSet kSup = MaskOf(SetRelation::kSuperset);
constexpr RelationSet kOvr = MaskOf(SetRelation::kOverlap);
constexpr RelationSet kDsj = MaskOf(SetRelation::kDisjoint);

// kComposeBase[r1][r2] = possible relations of A~C given A r1 B and B r2 C,
// for non-empty sets with proper containment/overlap semantics. Derivations
// are spelled out in tests/core/set_relation_test.cc, which re-derives the
// whole table by enumerating subsets of a small universe.
constexpr std::array<std::array<RelationSet, kNumSetRelations>,
                     kNumSetRelations>
    kComposeBase = {{
        // r1 = kEqual
        {{kEq, kSub, kSup, kOvr, kDsj}},
        // r1 = kSubset
        {{kSub, kSub, kAnyRelation, kSub | kOvr | kDsj, kDsj}},
        // r1 = kSuperset
        {{kSup, kEq | kSub | kSup | kOvr, kSup, kSup | kOvr,
          kSup | kOvr | kDsj}},
        // r1 = kOverlap
        {{kOvr, kSub | kOvr, kSup | kOvr | kDsj, kAnyRelation,
          kSup | kOvr | kDsj}},
        // r1 = kDisjoint
        {{kDsj, kSub | kOvr | kDsj, kDsj, kSub | kOvr | kDsj,
          kAnyRelation}},
    }};

constexpr std::array<RelationSet, kNumRelationSets> BuildConverseTable() {
  std::array<RelationSet, kNumRelationSets> table{};
  for (int set = 0; set < kNumRelationSets; ++set) {
    RelationSet out = static_cast<RelationSet>(set & (kEq | kOvr | kDsj));
    if (set & kSub) out |= kSup;
    if (set & kSup) out |= kSub;
    table[set] = out;
  }
  return table;
}

constexpr std::array<std::array<RelationSet, kNumRelationSets>,
                     kNumRelationSets>
BuildComposeSetTable() {
  std::array<std::array<RelationSet, kNumRelationSets>, kNumRelationSets>
      table{};
  for (int r1 = 0; r1 < kNumRelationSets; ++r1) {
    for (int r2 = 0; r2 < kNumRelationSets; ++r2) {
      RelationSet out = kNoRelation;
      for (int i = 0; i < kNumSetRelations; ++i) {
        if (!(r1 & (1 << i))) continue;
        for (int j = 0; j < kNumSetRelations; ++j) {
          if (!(r2 & (1 << j))) continue;
          out |= kComposeBase[i][j];
        }
      }
      table[r1][r2] = out;
    }
  }
  return table;
}

}  // namespace set_relation_detail

// Full 32-entry converse table: kConverseTable[R(A,B)] = R(B,A).
inline constexpr auto kConverseTable =
    set_relation_detail::BuildConverseTable();

// Full 32×32 composition table, materialized at compile time from the 5×5
// single-relation base table: kComposeSetTable[r1][r2] is the set of
// possible R(A,C) given R(A,B) ∈ r1 and R(B,C) ∈ r2. Row r1 of this table
// is a 32-byte lookup the worklist kernel streams a packed relation row
// through — one load + one AND per pair instead of a 5×5 bit loop.
inline constexpr auto kComposeSetTable =
    set_relation_detail::BuildComposeSetTable();

// Number of relations in the set.
int RelationCount(RelationSet set);

// Whether `set` holds exactly one relation, and that one is not
// disjointness: a pair pinned to it is integrating however it got pinned.
constexpr bool PinnedNonDisjoint(RelationSet set) {
  return set != kNoRelation && (set & (set - 1)) == 0 &&
         set != MaskOf(SetRelation::kDisjoint);
}

// The single relation of a singleton set. Precondition: exactly one bit set.
SetRelation TheRelation(RelationSet set);

// The converse relation set: R(B,A) given R(A,B). Swaps subset/superset.
constexpr RelationSet Converse(RelationSet set) {
  return kConverseTable[set];
}

// Composition: given R1(A,B) ∈ r1 and R2(B,C) ∈ r2, the set of possible
// R(A,C). This is the algebra behind the paper's "transitive composition of
// assertions": e.g. Compose(subset, subset) = {subset} recovers
// a⊆b ∧ b⊆c ⇒ a⊆c. The table is exhaustively verified against a
// brute-force set-enumeration model in the property tests.
constexpr RelationSet Compose(RelationSet r1, RelationSet r2) {
  return kComposeSetTable[r1][r2];
}

// "{=, <, ><}" style rendering for conflict reports.
std::string RelationSetToString(RelationSet set);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_SET_RELATION_H_
