#ifndef ECRINT_CORE_ASSERTION_STORE_H_
#define ECRINT_CORE_ASSERTION_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/assertion.h"
#include "core/object_ref.h"
#include "core/set_relation.h"

namespace ecrint::common {
class ThreadPool;
}  // namespace ecrint::common

namespace ecrint::core {

// Explains why an attempted assertion contradicts the store: the current
// (possibly derived) constraint on the pair and the user assertions whose
// transitive composition produced it. This is the information the paper's
// Assertion Conflict Resolution Screen (Screen 9) displays.
struct ConflictReport {
  Assertion attempted;
  // Set when the rejected operation was a Constrain() rather than a user
  // assertion; ToString() prefers it over `attempted`.
  std::string attempted_description;
  // The pair whose possible relations became empty. Usually the attempted
  // pair itself; with full propagation the contradiction can surface on a
  // different pair, which is named here.
  ObjectRef conflict_first;
  ObjectRef conflict_second;
  RelationSet existing = kAnyRelation;  // constraint on that pair before
  bool existing_is_derived = false;     // no direct user assertion on pair
  std::vector<Assertion> supporting;    // user assertions that derived it

  std::string ToString() const;
};

// Work counters for the change-driven closure kernel, accumulated over the
// store's lifetime. Externally synchronized like the store itself; the
// service plane samples these around each verb and feeds the deltas into
// MetricsRegistry as closure.* instruments.
struct ClosureStats {
  int64_t worklist_pops = 0;      // narrowed edges taken off the worklist
  int64_t row_compositions = 0;   // packed-row cells visited by sweeps
  int64_t narrowings = 0;         // cells whose relation set shrank
  int64_t conflicts = 0;          // rejected Assert/Constrain attempts
  int64_t batch_parallel_runs = 0;  // AssertBatch calls that ran clustered
  int64_t kernel_ns = 0;          // wall time inside Assert/Constrain/batch

  ClosureStats& operator+=(const ClosureStats& other) {
    worklist_pops += other.worklist_pops;
    row_compositions += other.row_compositions;
    narrowings += other.narrowings;
    conflicts += other.conflicts;
    batch_parallel_runs += other.batch_parallel_runs;
    kernel_ns += other.kernel_ns;
    return *this;
  }
};

// The paper's Entity Assertion matrix plus its derivation machinery. Each
// pair of registered structures carries the set of still-possible domain
// relations; a user assertion pins a pair to one relation, and path
// consistency over the set-relation algebra derives the consequences
// ("if Worker ⊆ Employee and Employee ⊆ Person then Worker ⊆ Person") and
// rejects contradictions ("if Employee = Person and Person = Worker then
// Worker cannot be a subset of Employee").
//
// Representation: relation rows are packed — one byte (5 live bits) per
// pair in a row-major matrix, with a parallel bitmap marking the columns
// that are constrained at all (≠ kAnyRelation). Closure is change-driven:
// a worklist holds exactly the edges whose relation set narrowed, and each
// popped edge (a,b) refines row a against row b (and row b against row a)
// through the precomputed 32×32 kComposeSetTable — Compose(x, kAnyRelation)
// is always kAnyRelation, so sweeps skip unconstrained columns wholesale by
// scanning the bitmap words. A second bitmap marks the columns whose set
// excludes disjointness: when the popped edge itself admits disjointness,
// Compose(edge, {disjoint}) is already kAnyRelation, so by monotonicity
// every column that admits disjointness composes to kAnyRelation too and
// the sweep scans only that second, much sparser bitmap (seeded schemas
// are mostly pairwise disjoint). Provenance is recorded per narrowing as the
// intermediate vertex whose two edges composed (a derivation DAG), and
// Screen-9 support sets are reconstructed on demand by walking that DAG to
// the user assertions — no per-cell support vectors on the hot path.
//
// Assert() is transactional: on conflict the store is left unchanged and a
// ConflictReport describes the contradiction, so the DDA can revise
// assertions exactly as Screen 9 prescribes.
class AssertionStore {
 public:
  AssertionStore() = default;

  // Registers a structure; idempotent. Assert() registers its operands
  // automatically, so explicit registration is only needed for structures
  // that should appear in integration without any assertion.
  int AddObject(const ObjectRef& ref);

  bool Knows(const ObjectRef& ref) const { return index_.count(ref) > 0; }
  int num_objects() const { return static_cast<int>(objects_.size()); }
  const std::vector<ObjectRef>& objects() const { return objects_; }

  // Dense ids: a registered structure's index in objects(), or -1. Bulk
  // consumers (phase 4's lattice and cluster passes) resolve each structure
  // once and then read pairs by id instead of hashing two names per pair.
  int IdOf(const ObjectRef& ref) const;
  // How many times the store unregistered objects (a conflicting batch
  // forgets the endpoints it interned). While this is unchanged, ids only
  // ever grow: a reader that cached IdOf answers for objects()[0, n) may
  // trust them, and needs to look up again only what was unknown.
  int64_t object_forgets() const { return object_forgets_; }
  RelationSet RelationAt(int a, int b) const { return rel_[Cell(a, b)]; }
  bool IsIntegratingAt(int a, int b) const;

  // Calls fn(b) for every b > a with PinnedNonDisjoint(RelationAt(a, b)),
  // in ascending order, by scanning row a of the pinned-pair index. Only
  // these =, ⊂, ⊃ and overlap pairs can merge, order or cluster two
  // structures from the relation alone; the disjoint-integrable pairs are
  // listed separately, and every other pair (ambiguous or disjoint) joins
  // nothing, so phase 4 visits pinned pairs only.
  template <typename Fn>
  void ForEachPinnedAbove(int a, Fn&& fn) const {
    const uint64_t* bits = &pinned_[static_cast<size_t>(a) * words_];
    int first = a + 1;
    for (int w = first >> 6; w < words_; ++w) {
      uint64_t word = bits[w];
      if (w == first >> 6) word &= ~uint64_t{0} << (first & 63);
      while (word != 0) {
        int b = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        fn(b);
      }
    }
  }

  // Records `first <type> second`. On contradiction returns kConflict and a
  // report; the store is unchanged. Re-asserting a compatible fact is OK.
  // Asserting over a pair within one schema is allowed (the algebra does not
  // care), but the standard workflow asserts across schemas.
  Result<ConflictReport> Assert(const Assertion& assertion);

  // Convenience overload.
  Result<ConflictReport> Assert(const ObjectRef& first,
                                const ObjectRef& second, AssertionType type);

  // Asserts `batch` in order, stopping at (and reporting) the first
  // conflict exactly as the equivalent Assert() loop would: same log, same
  // matrix, same derivation records, same registered objects, same report.
  // Each endpoint is interned once up front and the assertions are applied
  // by id, with a report built only for the one returned (the last success
  // or the first conflict). When the batch spans several connected
  // components of the (store ∪ batch) constraint graph and a pool is
  // supplied, each cluster's closure runs on its own worker over a scratch
  // store and the results are merged — closure never crosses a component
  // boundary (composing with kAnyRelation derives nothing), so the merged
  // state is identical to the sequential replay. This is the bulk entry
  // point for replaying a log: a retract's rebuild and a project import.
  Result<ConflictReport> AssertBatch(const std::vector<Assertion>& batch,
                                     common::ThreadPool* pool = nullptr);

  // The same over names given once: entry k asserts refs[batch[k].first]
  // <batch[k].type> refs[batch[k].second], and the result equals the
  // Assert() loop over those assertions. A structure the store lacks is
  // interned when the first entry naming it is reached, which hands out
  // the loop's ids; before any entry is applied, the pair arrays grow once
  // to hold every structure the batch names. `refs` should be distinct (a
  // repeat is sized twice but interned once). Applied in order, never
  // clustered: the bulk entry point for integration seeding.
  Result<ConflictReport> AssertBatch(const std::vector<ObjectRef>& refs,
                                     const std::vector<IdAssertion>& batch);

  // Restricts the pair's possible relations to `allowed` without recording
  // a user assertion — the entry point for domain-derived bounds such as
  // ObjectRelationBound (closed-world key reasoning). Transactional like
  // Assert; a singleton constraint behaves like the matching derived fact.
  Result<ConflictReport> Constrain(const ObjectRef& first,
                                   const ObjectRef& second,
                                   RelationSet allowed);

  // The still-possible relations for a pair (kAnyRelation if unknown).
  RelationSet PossibleRelations(const ObjectRef& first,
                                const ObjectRef& second) const;

  // The single established relation if the pair is pinned down (either
  // asserted or derived); nullopt-like via Result: kNotFound when ambiguous.
  Result<SetRelation> EstablishedRelation(const ObjectRef& first,
                                          const ObjectRef& second) const;

  // Whether the pair may be clustered/integrated: true for every
  // user-asserted integrating assertion and for derived non-disjoint
  // relations; false for disjoint-nonintegrable and for pairs whose only
  // established relation is a *derived* disjointness (the DDA never asked
  // to generalize them).
  bool IsIntegrating(const ObjectRef& first, const ObjectRef& second) const;

  // The user-assertion log in entry order, on dense ids (objects()[id]).
  // Assertions are built from it only where one is handed out.
  const std::vector<IdAssertion>& assertion_log() const { return log_; }
  int num_user_assertions() const { return static_cast<int>(log_.size()); }
  // User assertion `index` (0 <= index < num_user_assertions()), built.
  Assertion user_assertion(int index) const { return ToAssertion(log_[index]); }
  // Every user assertion in entry order, built: a copy of the whole log.
  std::vector<Assertion> user_assertions() const;

  // Dense id pairs of the disjoint-integrable user assertions, in entry
  // order: the pairs that ask phase 4 for a derived generalization, and
  // the only disjoint pairs that can be integrating. Kept beside the log so
  // bulk readers need not walk every assertion.
  const std::vector<std::pair<int, int>>& disjoint_integrable_pairs() const {
    return disjoint_integrable_;
  }

  // Pairs pinned to a single relation by derivation only (Screen 9's
  // "<derived>" rows), with the user assertions supporting each.
  struct DerivedFact {
    ObjectRef first;
    ObjectRef second;
    SetRelation relation;
    std::vector<Assertion> supporting;
  };
  std::vector<DerivedFact> DerivedFacts() const;

  // User assertions whose composition supports the current constraint on
  // the pair (empty when the pair is unconstrained).
  std::vector<Assertion> SupportingAssertions(const ObjectRef& first,
                                              const ObjectRef& second) const;

  // The structured report behind the most recent Assert/Constrain failure
  // (the status message is its ToString). Reset on every call; engaged only
  // while the last call conflicted. Lets diagnostic layers surface the
  // Screen-9 derivation chain without parsing the message text.
  const std::optional<ConflictReport>& last_conflict() const {
    return last_conflict_;
  }

  // Closure kernel work counters (lifetime totals for this store).
  const ClosureStats& closure_stats() const { return stats_; }
  // Zeroes the counters, so a copy that is about to be extended counts
  // only its own work rather than its origin's again.
  void ClearClosureStats() { stats_ = {}; }

  // Whether bit b of row a of the disjointness-exclusion index is set: the
  // sweep skip's bitmap, which must equal "a != b and RelationAt(a, b)
  // excludes disjointness" after every operation.
  bool IndexedExcludesDisjoint(int a, int b) const {
    return (excludes_disjoint_[static_cast<size_t>(a) * words_ + (b >> 6)] >>
            (b & 63)) &
           1;
  }

  // Number of connected components among objects that carry at least one
  // constrained pair — the independent clusters the batch kernel can close
  // in parallel. Computed on demand from the constrained bitmaps.
  int num_clusters() const;

 private:
  // One provenance record: the cell it hangs off was narrowed by composing
  // its two edges through `via`. Records chain per cell through `next`
  // (index into deriv_pool_, -1 ends); a cell can narrow at most four times
  // (bits only disappear), so chains are short.
  struct DerivRecord {
    int32_t via = -1;
    int32_t next = -1;
  };

  // Undo log entry for the in-flight transactional Assert/Constrain: the
  // normalized cell plus everything needed to restore it (the mirror cell
  // is recomputed as the converse).
  struct UndoEntry {
    int64_t cell = -1;
    RelationSet rel = kAnyRelation;
    int32_t direct = -1;
    int32_t deriv_head = -1;
  };

  int Intern(const ObjectRef& ref);
  // Resizes the pair arrays to hold `structures` structures, rounded up to
  // a bitmap word; never shrinks.
  void Grow(int structures);
  Assertion ToAssertion(const IdAssertion& entry) const {
    return {objects_[entry.first], objects_[entry.second], entry.type};
  }

  int64_t Cell(int i, int j) const {
    return static_cast<int64_t>(i) * capacity_ + j;
  }
  int64_t NormCell(int i, int j) const {
    return i <= j ? Cell(i, j) : Cell(j, i);
  }
  void SetConstrainedBit(int i, int j) {
    constrained_[static_cast<size_t>(i) * words_ + (j >> 6)] |=
        uint64_t{1} << (j & 63);
  }
  void ClearConstrainedBit(int i, int j) {
    constrained_[static_cast<size_t>(i) * words_ + (j >> 6)] &=
        ~(uint64_t{1} << (j & 63));
  }
  // Keeps the pinned-pair index and the disjointness-exclusion bitmap in
  // step with a write of `rel` to pair (i,j); every write to rel_ off the
  // diagonal goes through here.
  void IndexPair(int i, int j, RelationSet rel) {
    if (i == j) return;
    SetBit(pinned_, std::min(i, j), std::max(i, j), PinnedNonDisjoint(rel));
    // Converse keeps disjointness, so the bit is the same both ways.
    bool excludes = !Contains(rel, SetRelation::kDisjoint);
    SetBit(excludes_disjoint_, i, j, excludes);
    SetBit(excludes_disjoint_, j, i, excludes);
  }
  void SetBit(std::vector<uint64_t>& bitmap, int i, int j, bool on) {
    uint64_t& word = bitmap[static_cast<size_t>(i) * words_ + (j >> 6)];
    uint64_t bit = uint64_t{1} << (j & 63);
    word = on ? word | bit : word & ~bit;
  }

  void BeginTxn();
  void CommitTxn();
  void Rollback();

  // Applies `refined` to pair (x,y) (already a strict narrowing), records
  // the derivation via `via` (< 0 for direct assertions / constraints,
  // which carry their provenance elsewhere), and queues the edge. Returns
  // false when the pair just became empty — a contradiction.
  bool Narrow(int x, int y, RelationSet refined, int via);

  // Drains the worklist to the path-consistency fixpoint. Returns the
  // conflicting pair on contradiction, or {-1,-1}.
  std::pair<int, int> Drain();

  // One direction of a popped edge's propagation: R(x,k) &= table[R(y,k)]
  // for every column k constrained in row y, recording derivations via y.
  // Returns the conflicting k (pair (x,k) became empty) or -1.
  int SweepRow(int x, int y, const RelationSet* table);

  // Sorted, deduplicated user-assertion ids reachable through the
  // derivation DAG from pair (i,j) — the Screen-9 support set.
  std::vector<int32_t> ExpandSupportIds(int i, int j) const;
  void AppendSupport(int i, int j, std::vector<Assertion>& out) const;

  ConflictReport ReportFor(int ci, int cj) const;

  // Assert() on interned ids without building a report: returns the pair
  // that became empty (the store is then unchanged), or {-1,-1}.
  std::pair<int, int> Apply(const IdAssertion& entry);
  // The failure Assert() returns for a conflict on pair (ci,cj).
  Result<ConflictReport> Conflict(int ci, int cj, const Assertion& attempted);
  // The report Assert() returns when `entry` is accepted.
  ConflictReport Accepted(const IdAssertion& entry) const;
  // Leaves room for `more` log entries plus a quarter as headroom, so the
  // first Assert after a bulk load does not move the whole log.
  void ReserveLog(size_t more);
  // Unregisters objects [n, num_objects()), which no pair constrains.
  void ForgetObjectsFrom(int n);

  // The batch applied in order on its interned ids; on a conflict, forgets
  // the endpoints the Assert() loop would not have registered yet (ids
  // were interned in batch order, from `objects_before` on).
  Result<ConflictReport> ApplyInOrder(const std::vector<IdAssertion>& batch,
                                      int objects_before);
  // The clustered path: closes each connected component the batch touches
  // on its own worker and merges the results. Returns false, with the
  // store as it was, when the batch joins one component only or some
  // component conflicts; the caller then applies the batch in order.
  bool AssertClustered(const std::vector<IdAssertion>& batch,
                       common::ThreadPool& pool);
  // Copies every constrained pair of `scratch` into this store, remapping
  // object ids via `object_map` (scratch id -> this-store id) and user
  // assertion ids via `assertion_map`.
  void MergeComponent(const AssertionStore& scratch,
                      const std::vector<int>& object_map,
                      const std::vector<int32_t>& assertion_map);

  std::vector<ObjectRef> objects_;
  std::unordered_map<ObjectRef, int, ObjectRefHash> index_;
  int64_t object_forgets_ = 0;

  // Packed pair state, all row-major with stride capacity_ (a multiple of
  // 64, grown by half when an Intern overflows it, or once to a seed
  // batch's size). rel_ holds both orientations (the mirror cell
  // is always the converse); direct_/deriv_head_/queued_ are meaningful on
  // the normalized (min,max) cell only.
  int capacity_ = 0;
  int words_ = 0;  // 64-bit bitmap words per row == capacity_ / 64
  std::vector<RelationSet> rel_;
  std::vector<uint64_t> constrained_;  // bit j of row i: rel_[i][j] != ANY
  // Bit j of row i, for i < j only: PinnedNonDisjoint(rel_[i][j]).
  std::vector<uint64_t> pinned_;
  // Bit j of row i, i != j: rel_[i][j] excludes disjointness (so a subset
  // of constrained_). SweepRow's skip reads it.
  std::vector<uint64_t> excludes_disjoint_;
  std::vector<int32_t> direct_;        // latest direct assertion id, -1 none
  std::vector<int32_t> deriv_head_;    // head of DerivRecord chain, -1 none
  std::vector<DerivRecord> deriv_pool_;

  std::vector<IdAssertion> log_;
  std::vector<std::pair<int, int>> disjoint_integrable_;

  // Worklist of narrowed (normalized) cells, drained FIFO; queued_ prevents
  // duplicate entries.
  std::vector<int64_t> worklist_;
  size_t work_head_ = 0;
  std::vector<uint8_t> queued_;

  // Transaction state for the in-flight Assert/Constrain.
  std::vector<UndoEntry> undo_;
  size_t deriv_pool_mark_ = 0;

  // Epoch-stamped visited marks for support expansion (no per-call clear).
  mutable std::vector<uint32_t> visited_stamp_;
  mutable uint32_t visited_epoch_ = 0;

  std::optional<ConflictReport> last_conflict_;
  // Constrain() state cannot be reproduced by replaying log_,
  // so its presence disables the replay-based parallel batch path.
  bool has_constraints_ = false;
  ClosureStats stats_;
};

}  // namespace ecrint::core

#endif  // ECRINT_CORE_ASSERTION_STORE_H_
