#include "core/assertion_store.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <utility>

#if defined(__SSSE3__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"

namespace ecrint::core {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string ConflictReport::ToString() const {
  std::string out = "conflict: asserting '" +
                    (attempted_description.empty()
                         ? attempted.ToString()
                         : attempted_description) +
                    "' contradicts the " +
                    (existing_is_derived ? "derived" : "asserted") +
                    " constraint " + RelationSetToString(existing) + " on " +
                    conflict_first.ToString() + " / " +
                    conflict_second.ToString();
  if (!supporting.empty()) {
    out += "; supported by:";
    for (const Assertion& a : supporting) {
      out += "\n  " + a.ToString();
    }
  }
  return out;
}

void AssertionStore::Grow(int structures) {
  int new_capacity = (structures + 63) / 64 * 64;
  if (new_capacity <= capacity_) return;
  int new_words = new_capacity / 64;
  size_t cells = static_cast<size_t>(new_capacity) * new_capacity;

  // Row stride changes, so every per-cell array is rebuilt row by row.
  // Both callers (Intern and the seed batch) run strictly between
  // transactions, so the worklist and undo log are empty and
  // queued_/visited_stamp_ can simply be re-zeroed.
  std::vector<RelationSet> rel(cells, kAnyRelation);
  std::vector<uint64_t> constrained(
      static_cast<size_t>(new_capacity) * new_words, 0);
  std::vector<uint64_t> pinned(static_cast<size_t>(new_capacity) * new_words,
                               0);
  std::vector<uint64_t> excludes_disjoint(
      static_cast<size_t>(new_capacity) * new_words, 0);
  std::vector<int32_t> direct(cells, -1);
  std::vector<int32_t> deriv_head(cells, -1);
  int n = num_objects();
  for (int i = 0; i < n; ++i) {
    std::copy_n(rel_.begin() + static_cast<size_t>(i) * capacity_, n,
                rel.begin() + static_cast<size_t>(i) * new_capacity);
    std::copy_n(constrained_.begin() + static_cast<size_t>(i) * words_,
                words_,
                constrained.begin() + static_cast<size_t>(i) * new_words);
    std::copy_n(pinned_.begin() + static_cast<size_t>(i) * words_, words_,
                pinned.begin() + static_cast<size_t>(i) * new_words);
    std::copy_n(excludes_disjoint_.begin() + static_cast<size_t>(i) * words_,
                words_,
                excludes_disjoint.begin() + static_cast<size_t>(i) * new_words);
    std::copy_n(direct_.begin() + static_cast<size_t>(i) * capacity_, n,
                direct.begin() + static_cast<size_t>(i) * new_capacity);
    std::copy_n(deriv_head_.begin() + static_cast<size_t>(i) * capacity_, n,
                deriv_head.begin() + static_cast<size_t>(i) * new_capacity);
  }
  rel_ = std::move(rel);
  constrained_ = std::move(constrained);
  pinned_ = std::move(pinned);
  excludes_disjoint_ = std::move(excludes_disjoint);
  direct_ = std::move(direct);
  deriv_head_ = std::move(deriv_head);
  queued_.assign(cells, 0);
  visited_stamp_.assign(cells, 0);
  visited_epoch_ = 0;
  capacity_ = new_capacity;
  words_ = new_words;
}

int AssertionStore::Intern(const ObjectRef& ref) {
  auto [it, inserted] = index_.try_emplace(ref, num_objects());
  if (!inserted) return it->second;
  int id = it->second;
  // Grow by half, not double: a store just past a boundary (513 structures,
  // say) then holds 768² cells instead of 1024² at 14 bytes a cell.
  if (id + 1 > capacity_) Grow(std::max(id + 1, capacity_ + capacity_ / 2));
  objects_.push_back(ref);
  rel_[Cell(id, id)] = MaskOf(SetRelation::kEqual);
  return id;
}

int AssertionStore::AddObject(const ObjectRef& ref) { return Intern(ref); }

void AssertionStore::ForgetObjectsFrom(int n) {
  for (int id = num_objects() - 1; id >= n; --id) {
    index_.erase(objects_[id]);
    rel_[Cell(id, id)] = kAnyRelation;
  }
  objects_.resize(n);
}

void AssertionStore::ReserveLog(size_t more) {
  size_t wanted = log_.size() + more;
  if (wanted > log_.capacity()) log_.reserve(wanted + more / 4);
}

void AssertionStore::BeginTxn() {
  undo_.clear();
  deriv_pool_mark_ = deriv_pool_.size();
}

void AssertionStore::CommitTxn() {
  undo_.clear();
  deriv_pool_mark_ = deriv_pool_.size();
}

void AssertionStore::Rollback() {
  // Reverse order so the earliest save of a multiply-narrowed cell wins.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    int a = static_cast<int>(it->cell / capacity_);
    int b = static_cast<int>(it->cell % capacity_);
    rel_[it->cell] = it->rel;
    rel_[Cell(b, a)] = Converse(it->rel);
    IndexPair(a, b, it->rel);
    if (it->rel == kAnyRelation) {
      ClearConstrainedBit(a, b);
      ClearConstrainedBit(b, a);
    }
    direct_[it->cell] = it->direct;
    deriv_head_[it->cell] = it->deriv_head;
  }
  undo_.clear();
  deriv_pool_.resize(deriv_pool_mark_);
  // Undrained worklist entries still carry queued marks.
  for (size_t p = work_head_; p < worklist_.size(); ++p) {
    queued_[worklist_[p]] = 0;
  }
  worklist_.clear();
  work_head_ = 0;
}

bool AssertionStore::Narrow(int x, int y, RelationSet refined, int via) {
  int64_t cn = NormCell(x, y);
  undo_.push_back({cn, rel_[cn], direct_[cn], deriv_head_[cn]});
  rel_[Cell(x, y)] = refined;
  rel_[Cell(y, x)] = Converse(refined);
  IndexPair(x, y, refined);
  SetConstrainedBit(x, y);
  SetConstrainedBit(y, x);
  if (via >= 0) {
    deriv_pool_.push_back({static_cast<int32_t>(via), deriv_head_[cn]});
    deriv_head_[cn] = static_cast<int32_t>(deriv_pool_.size() - 1);
  }
  ++stats_.narrowings;
  if (!queued_[cn]) {
    queued_[cn] = 1;
    worklist_.push_back(cn);
  }
  return refined != kNoRelation;
}

int AssertionStore::SweepRow(int x, int y, const RelationSet* table) {
  RelationSet* row_x = &rel_[static_cast<size_t>(x) * capacity_];
  const RelationSet* row_y = &rel_[static_cast<size_t>(y) * capacity_];
  // When the edge composes with disjointness to kAnyRelation, so does every
  // column whose set admits disjointness (the compose table is monotone):
  // only columns that exclude it can narrow.
  const std::vector<uint64_t>& columns =
      table[MaskOf(SetRelation::kDisjoint)] == kAnyRelation
          ? excludes_disjoint_
          : constrained_;
  const uint64_t* bits_y = &columns[static_cast<size_t>(y) * words_];
  int64_t visited = 0;
  // No k == x / k == y guards are needed in either variant: for k == x the
  // current value is kEqual and Compose(r, Converse(r)) ⊇ {=}, and for
  // k == y the composed mask is Compose(r, {=}) == r — both are no-ops.
#if defined(__SSSE3__)
  // 16 columns per step: pshufb performs the 32-byte compose-table lookup
  // in-register (two 16-entry shuffles blended on bit 4 of the index).
  // Columns without a bit in the scanned bitmap compose to kAnyRelation
  // (unconstrained, or admitting disjointness under the skip), so lanes
  // never need masking — a block is touched at all only if its 16-bit
  // slice of the bitmap is nonzero, and only lanes whose AND actually
  // changed take the scalar Narrow path. Blocks never cross the row edge
  // (capacity_ % 64 == 0).
  const __m128i t_lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table));
  const __m128i t_hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16));
  const __m128i bit4 = _mm_set1_epi8(0x10);
  for (int w = 0; w < words_; ++w) {
    uint64_t bits = bits_y[w];
    if (bits == 0) continue;
    for (int blk = 0; blk < 4; ++blk) {
      if (((bits >> (blk * 16)) & 0xFFFFu) == 0) continue;
      int k0 = (w << 6) + (blk << 4);
      visited += 16;
      __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_y + k0));
      __m128i lo = _mm_shuffle_epi8(t_lo, v);
      __m128i hi = _mm_shuffle_epi8(t_hi, v);
      __m128i hi_mask = _mm_cmpeq_epi8(_mm_and_si128(v, bit4), bit4);
      __m128i composed = _mm_or_si128(_mm_and_si128(hi_mask, hi),
                                      _mm_andnot_si128(hi_mask, lo));
      __m128i cur =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_x + k0));
      __m128i same = _mm_cmpeq_epi8(_mm_and_si128(cur, composed), cur);
      unsigned changed =
          0xFFFFu ^ static_cast<unsigned>(_mm_movemask_epi8(same));
      while (changed != 0) {
        int k = k0 + std::countr_zero(changed);
        changed &= changed - 1;
        RelationSet refined =
            static_cast<RelationSet>(row_x[k] & table[row_y[k]]);
        if (!Narrow(x, k, refined, y)) {
          stats_.row_compositions += visited;
          return k;
        }
      }
    }
  }
#else
  for (int w = 0; w < words_; ++w) {
    uint64_t bits = bits_y[w];
    while (bits != 0) {
      int k = (w << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      ++visited;
      RelationSet cur = row_x[k];
      RelationSet refined = static_cast<RelationSet>(cur & table[row_y[k]]);
      if (refined != cur && !Narrow(x, k, refined, y)) {
        stats_.row_compositions += visited;
        return k;
      }
    }
  }
#endif
  stats_.row_compositions += visited;
  return -1;
}

std::pair<int, int> AssertionStore::Drain() {
  while (work_head_ < worklist_.size()) {
    int64_t cell = worklist_[work_head_++];
    queued_[cell] = 0;
    int a = static_cast<int>(cell / capacity_);
    int b = static_cast<int>(cell % capacity_);
    RelationSet r_ab = rel_[cell];
    ++stats_.worklist_pops;
    // Row r_ab of the packed compose table refines a whole relation row
    // with one lookup + AND per constrained column; unconstrained columns
    // are skipped wholesale via the bitmap (Compose(x, kAnyRelation) ==
    // kAnyRelation, so they can never refine). The two sweeps cover all
    // four composition directions through (a,b): the converse invariant of
    // the matrix (rel[y][x] == Converse(rel[x][y]) always) makes the other
    // two redundant.
    int ck = SweepRow(a, b, kComposeSetTable[r_ab].data());
    if (ck >= 0) return {a, ck};
    ck = SweepRow(b, a, kComposeSetTable[Converse(r_ab)].data());
    if (ck >= 0) return {b, ck};
  }
  worklist_.clear();
  work_head_ = 0;
  return {-1, -1};
}

std::vector<int32_t> AssertionStore::ExpandSupportIds(int i, int j) const {
  std::vector<int32_t> out;
  if (capacity_ == 0) return out;
  if (++visited_epoch_ == 0) {  // epoch wrap: invalidate all stamps
    std::fill(visited_stamp_.begin(), visited_stamp_.end(), 0);
    visited_epoch_ = 1;
  }
  std::vector<int64_t> stack;
  stack.push_back(NormCell(i, j));
  while (!stack.empty()) {
    int64_t cell = stack.back();
    stack.pop_back();
    if (visited_stamp_[cell] == visited_epoch_) continue;
    visited_stamp_[cell] = visited_epoch_;
    if (direct_[cell] >= 0) out.push_back(direct_[cell]);
    int a = static_cast<int>(cell / capacity_);
    int b = static_cast<int>(cell % capacity_);
    for (int32_t rec = deriv_head_[cell]; rec >= 0;
         rec = deriv_pool_[rec].next) {
      int via = deriv_pool_[rec].via;
      stack.push_back(NormCell(a, via));
      stack.push_back(NormCell(via, b));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void AssertionStore::AppendSupport(int i, int j,
                                   std::vector<Assertion>& out) const {
  for (int32_t id : ExpandSupportIds(i, j)) {
    out.push_back(ToAssertion(log_[id]));
  }
}

ConflictReport AssertionStore::ReportFor(int ci, int cj) const {
  ConflictReport report;
  report.conflict_first = objects_[ci];
  report.conflict_second = objects_[cj];
  report.existing = rel_[Cell(ci, cj)];
  report.existing_is_derived = direct_[NormCell(ci, cj)] < 0;
  AppendSupport(ci, cj, report.supporting);
  return report;
}

std::pair<int, int> AssertionStore::Apply(const IdAssertion& entry) {
  const int i = entry.first;
  const int j = entry.second;
  RelationSet mask = MaskOf(RelationOf(entry.type));

  // Fast-path direct contradiction: fail without touching state.
  if ((rel_[Cell(i, j)] & mask) == kNoRelation) {
    ++stats_.conflicts;
    return {i, j};
  }

  // Transactional apply: narrow the pair, drain the worklist, and roll the
  // undo log back on contradiction.
  BeginTxn();
  int32_t assertion_id = static_cast<int32_t>(log_.size());
  log_.push_back(entry);
  bool disjoint_integrable = entry.type == AssertionType::kDisjointIntegrable;
  if (disjoint_integrable) disjoint_integrable_.push_back({i, j});

  int a = std::min(i, j);
  int b = std::max(i, j);
  int64_t cn = Cell(a, b);
  RelationSet norm_mask = i <= j ? mask : Converse(mask);
  RelationSet refined = static_cast<RelationSet>(rel_[cn] & norm_mask);
  undo_.push_back({cn, rel_[cn], direct_[cn], deriv_head_[cn]});
  bool changed = refined != rel_[cn];
  rel_[cn] = refined;
  rel_[Cell(b, a)] = Converse(refined);
  direct_[cn] = assertion_id;
  if (a != b) {
    IndexPair(a, b, refined);
    SetConstrainedBit(a, b);
    SetConstrainedBit(b, a);
    if (changed && !queued_[cn]) {
      queued_[cn] = 1;
      worklist_.push_back(cn);
    }
  }

  auto [ci, cj] = Drain();
  if (ci >= 0) {
    ++stats_.conflicts;
    Rollback();
    log_.pop_back();
    if (disjoint_integrable) disjoint_integrable_.pop_back();
    return {ci, cj};  // reported post-rollback, i.e. as before the attempt
  }
  CommitTxn();
  return {-1, -1};
}

Result<ConflictReport> AssertionStore::Conflict(int ci, int cj,
                                                const Assertion& attempted) {
  ConflictReport report = ReportFor(ci, cj);
  report.attempted = attempted;
  last_conflict_ = std::move(report);
  return ConflictError(last_conflict_->ToString());
}

ConflictReport AssertionStore::Accepted(const IdAssertion& entry) const {
  ConflictReport ok;  // empty report signals success
  ok.attempted = ToAssertion(entry);
  ok.existing = rel_[Cell(entry.first, entry.second)];
  return ok;
}

Result<ConflictReport> AssertionStore::Assert(const Assertion& assertion) {
  last_conflict_.reset();
  int i = Intern(assertion.first);
  IdAssertion entry{i, Intern(assertion.second), assertion.type};
  int64_t t0 = NowNs();
  auto [ci, cj] = Apply(entry);
  stats_.kernel_ns += NowNs() - t0;
  if (ci >= 0) return Conflict(ci, cj, assertion);
  return Accepted(entry);
}

Result<ConflictReport> AssertionStore::Assert(const ObjectRef& first,
                                              const ObjectRef& second,
                                              AssertionType type) {
  return Assert(Assertion{first, second, type});
}

Result<ConflictReport> AssertionStore::Constrain(const ObjectRef& first,
                                                 const ObjectRef& second,
                                                 RelationSet allowed) {
  last_conflict_.reset();
  int i = Intern(first);
  int j = Intern(second);
  std::string description = first.ToString() + " " +
                            RelationSetToString(allowed) + " " +
                            second.ToString();
  RelationSet current = rel_[Cell(i, j)];
  if ((current & allowed) == kNoRelation) {
    ++stats_.conflicts;
    ConflictReport report = ReportFor(i, j);
    report.attempted_description = std::move(description);
    last_conflict_ = std::move(report);
    return ConflictError(last_conflict_->ToString());
  }
  if ((current & allowed) == current) {
    ConflictReport ok;
    ok.attempted_description = std::move(description);
    ok.existing = current;
    return ok;  // already at least this tight
  }

  int64_t t0 = NowNs();
  BeginTxn();
  // The narrowing is real but carries no user assertion and no derivation
  // record — its provenance lives with the caller (e.g. the closed-world
  // key bound), so support expansion through it contributes nothing, which
  // matches the Screen-9 contract for domain-derived constraints.
  Narrow(i, j, static_cast<RelationSet>(current & allowed), -1);
  has_constraints_ = true;
  auto [ci, cj] = Drain();
  stats_.kernel_ns += NowNs() - t0;
  if (ci >= 0) {
    ++stats_.conflicts;
    Rollback();
    ConflictReport report = ReportFor(ci, cj);
    report.attempted_description = std::move(description);
    last_conflict_ = std::move(report);
    return ConflictError(last_conflict_->ToString());
  }
  CommitTxn();
  ConflictReport ok;
  ok.attempted_description = std::move(description);
  ok.existing = rel_[Cell(i, j)];
  return ok;
}

int AssertionStore::IdOf(const ObjectRef& ref) const {
  auto it = index_.find(ref);
  return it == index_.end() ? -1 : it->second;
}

RelationSet AssertionStore::PossibleRelations(const ObjectRef& first,
                                              const ObjectRef& second) const {
  int a = IdOf(first);
  int b = IdOf(second);
  if (a < 0 || b < 0) return kAnyRelation;
  return RelationAt(a, b);
}

Result<SetRelation> AssertionStore::EstablishedRelation(
    const ObjectRef& first, const ObjectRef& second) const {
  RelationSet possible = PossibleRelations(first, second);
  if (RelationCount(possible) != 1) {
    return NotFoundError("relation between '" + first.ToString() + "' and '" +
                         second.ToString() + "' is not established (" +
                         RelationSetToString(possible) + ")");
  }
  return TheRelation(possible);
}

bool AssertionStore::IsIntegrating(const ObjectRef& first,
                                   const ObjectRef& second) const {
  int a = IdOf(first);
  int b = IdOf(second);
  return a >= 0 && b >= 0 && IsIntegratingAt(a, b);
}

bool AssertionStore::IsIntegratingAt(int a, int b) const {
  // A direct assertion pins its pair to the assertion's relation, so a pair
  // pinned to a relation other than disjointness integrates whether its pin
  // was asserted or derived. A disjoint pair integrates only when the DDA's
  // latest assertion on it integrates (disjoint-integrable): a derived
  // disjointness never connects a cluster (nobody asked for a
  // generalization over it).
  if (PinnedNonDisjoint(rel_[Cell(a, b)])) return true;
  int32_t direct = direct_[NormCell(a, b)];
  return direct >= 0 && core::IsIntegrating(log_[direct].type);
}

std::vector<Assertion> AssertionStore::user_assertions() const {
  std::vector<Assertion> out;
  out.reserve(log_.size());
  for (const IdAssertion& entry : log_) out.push_back(ToAssertion(entry));
  return out;
}

std::vector<AssertionStore::DerivedFact> AssertionStore::DerivedFacts()
    const {
  std::vector<DerivedFact> out;
  for (int i = 0; i < num_objects(); ++i) {
    for (int j = i + 1; j < num_objects(); ++j) {
      int64_t cn = Cell(i, j);
      if (direct_[cn] >= 0) continue;
      if (RelationCount(rel_[cn]) != 1) continue;
      std::vector<int32_t> support = ExpandSupportIds(i, j);
      if (support.empty()) continue;  // trivial (e.g. Constrain-pinned)
      DerivedFact fact;
      fact.first = objects_[i];
      fact.second = objects_[j];
      fact.relation = TheRelation(rel_[cn]);
      for (int32_t id : support) {
        fact.supporting.push_back(ToAssertion(log_[id]));
      }
      out.push_back(std::move(fact));
    }
  }
  return out;
}

std::vector<Assertion> AssertionStore::SupportingAssertions(
    const ObjectRef& first, const ObjectRef& second) const {
  std::vector<Assertion> out;
  int a = IdOf(first);
  int b = IdOf(second);
  if (a < 0 || b < 0) return out;
  AppendSupport(a, b, out);
  return out;
}

int AssertionStore::num_clusters() const {
  int n = num_objects();
  if (n == 0) return 0;
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<uint8_t> touched(n, 0);
  for (int i = 0; i < n; ++i) {
    const uint64_t* bits_i = &constrained_[static_cast<size_t>(i) * words_];
    for (int w = 0; w < words_; ++w) {
      uint64_t bits = bits_i[w];
      while (bits != 0) {
        int k = (w << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        if (k <= i) continue;
        touched[i] = 1;
        touched[k] = 1;
        parent[find(i)] = find(k);
      }
    }
  }
  int clusters = 0;
  for (int i = 0; i < n; ++i) {
    if (touched[i] && find(i) == i) ++clusters;
  }
  return clusters;
}

void AssertionStore::MergeComponent(
    const AssertionStore& scratch, const std::vector<int>& object_map,
    const std::vector<int32_t>& assertion_map) {
  std::vector<int32_t> chain;
  for (int i = 0; i < scratch.num_objects(); ++i) {
    int mi = object_map[i];
    // Diagonal: a self-assertion leaves its id on the diagonal cell.
    int32_t self = scratch.direct_[scratch.Cell(i, i)];
    if (self >= 0) direct_[Cell(mi, mi)] = assertion_map[self];
    for (int j = i + 1; j < scratch.num_objects(); ++j) {
      int64_t sc = scratch.Cell(i, j);
      RelationSet v = scratch.rel_[sc];
      if (v == kAnyRelation && scratch.direct_[sc] < 0) continue;
      int mj = object_map[j];
      rel_[Cell(mi, mj)] = v;
      rel_[Cell(mj, mi)] = Converse(v);
      IndexPair(mi, mj, v);
      if (v != kAnyRelation) {
        SetConstrainedBit(mi, mj);
        SetConstrainedBit(mj, mi);
      }
      int64_t cn = NormCell(mi, mj);
      direct_[cn] =
          scratch.direct_[sc] >= 0 ? assertion_map[scratch.direct_[sc]] : -1;
      // Re-link the derivation chain in scratch order (head = most recent
      // narrowing). The closure confined to this component ran the exact
      // sequence a sequential replay would, so the rebuilt chain is the
      // sequential chain; the cell's previous records in deriv_pool_ are
      // orphaned, which only costs their 8 bytes until the store is copied.
      chain.clear();
      for (int32_t rec = scratch.deriv_head_[sc]; rec >= 0;
           rec = scratch.deriv_pool_[rec].next) {
        chain.push_back(rec);
      }
      int32_t head = -1;
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        deriv_pool_.push_back(
            {static_cast<int32_t>(object_map[scratch.deriv_pool_[*it].via]),
             head});
        head = static_cast<int32_t>(deriv_pool_.size() - 1);
      }
      deriv_head_[cn] = head;
    }
  }
  deriv_pool_mark_ = deriv_pool_.size();
}

Result<ConflictReport> AssertionStore::ApplyInOrder(
    const std::vector<IdAssertion>& batch, int objects_before) {
  for (size_t k = 0; k < batch.size(); ++k) {
    auto [ci, cj] = Apply(batch[k]);
    if (ci < 0) continue;
    // The Assert() loop stops here, having registered only the endpoints
    // of batch[0..k]; ids grew in that order, so they are a prefix.
    int reached = objects_before;
    for (size_t p = 0; p <= k; ++p) {
      reached = std::max({reached, batch[p].first + 1, batch[p].second + 1});
    }
    ForgetObjectsFrom(reached);
    return Conflict(ci, cj, ToAssertion(batch[k]));
  }
  return Accepted(batch.back());
}

bool AssertionStore::AssertClustered(const std::vector<IdAssertion>& batch,
                                     common::ThreadPool& pool) {
  int n = num_objects();

  // Connected components of the constraint graph: existing constrained
  // pairs plus the batch edges.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (int i = 0; i < n; ++i) {
    const uint64_t* bits_i = &constrained_[static_cast<size_t>(i) * words_];
    for (int w = 0; w < words_; ++w) {
      uint64_t bits = bits_i[w];
      while (bits != 0) {
        int k = (w << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        if (k > i) parent[find(i)] = find(k);
      }
    }
  }
  for (const IdAssertion& entry : batch) {
    parent[find(entry.first)] = find(entry.second);
  }

  // Group batch assertions by component root.
  std::vector<int> group_of_root(n, -1);
  int groups = 0;
  for (const IdAssertion& entry : batch) {
    int& group = group_of_root[find(entry.first)];
    if (group < 0) group = groups++;
  }
  if (groups <= 1) return false;

  // Each group's replay sequence: the existing user assertions of its
  // component (by original id), then its batch slice — in global order.
  struct Task {
    std::vector<Assertion> replay;
    std::vector<int32_t> assertion_map;  // scratch id -> this-store id
    size_t existing = 0;  // replay entries already in this store's log
    ClosureStats before_batch;  // scratch counters after those
    AssertionStore scratch;
    bool conflicted = false;
  };
  std::vector<Task> tasks(groups);
  for (size_t ai = 0; ai < log_.size(); ++ai) {
    int group = group_of_root[find(log_[ai].first)];
    if (group < 0) continue;  // component untouched by batch
    Task& task = tasks[group];
    task.replay.push_back(ToAssertion(log_[ai]));
    task.assertion_map.push_back(static_cast<int32_t>(ai));
    ++task.existing;
  }
  int32_t base_id = static_cast<int32_t>(log_.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    Task& task = tasks[group_of_root[find(batch[k].first)]];
    task.replay.push_back(ToAssertion(batch[k]));
    task.assertion_map.push_back(base_id + static_cast<int32_t>(k));
  }

  pool.ParallelFor(0, groups, 1, [&tasks](int lo, int hi) {
    for (int g = lo; g < hi; ++g) {
      Task& task = tasks[g];
      for (size_t r = 0; r < task.replay.size(); ++r) {
        if (r == task.existing) task.before_batch = task.scratch.stats_;
        if (!task.scratch.Assert(task.replay[r]).ok()) {
          task.conflicted = true;
          break;
        }
      }
    }
  });
  // Some cluster contradicts: the in-order replay on this (untouched)
  // store reproduces the exact first-conflict report and prefix state.
  for (const Task& task : tasks) {
    if (task.conflicted) return false;
  }

  // Merge: component closures are independent (composition through an
  // unconstrained edge derives nothing), so copying each scratch matrix
  // over its component yields the sequential result.
  // Only the batch's share of each scratch's work counts: re-closing the
  // existing assertions repeats work this store already counted.
  ++stats_.batch_parallel_runs;
  for (const Task& task : tasks) {
    const AssertionStore& scratch = task.scratch;
    std::vector<int> object_map(scratch.num_objects());
    for (int s = 0; s < scratch.num_objects(); ++s) {
      object_map[s] = IdOf(scratch.objects_[s]);
    }
    MergeComponent(scratch, object_map, task.assertion_map);
    const ClosureStats& done = scratch.stats_;
    const ClosureStats& replayed = task.before_batch;
    stats_.worklist_pops += done.worklist_pops - replayed.worklist_pops;
    stats_.row_compositions +=
        done.row_compositions - replayed.row_compositions;
    stats_.narrowings += done.narrowings - replayed.narrowings;
  }
  log_.insert(log_.end(), batch.begin(), batch.end());
  for (const IdAssertion& entry : batch) {
    if (entry.type == AssertionType::kDisjointIntegrable) {
      disjoint_integrable_.push_back({entry.first, entry.second});
    }
  }
  return true;
}

Result<ConflictReport> AssertionStore::AssertBatch(
    const std::vector<Assertion>& batch, common::ThreadPool* pool) {
  if (batch.empty()) return ConflictReport{};
  last_conflict_.reset();
  int64_t t0 = NowNs();
  // Intern every endpoint once, in batch order — the ids an Assert() loop
  // would assign — and apply by id from here on.
  const int objects_before = num_objects();
  std::vector<IdAssertion> entries;
  entries.reserve(batch.size());
  for (const Assertion& assertion : batch) {
    int first = Intern(assertion.first);
    entries.push_back({first, Intern(assertion.second), assertion.type});
  }
  ReserveLog(batch.size());
  Result<ConflictReport> result = ConflictReport{};
  if (pool != nullptr && pool->size() > 1 && !has_constraints_ &&
      batch.size() > 1 && AssertClustered(entries, *pool)) {
    result = Accepted(entries.back());
  } else {
    result = ApplyInOrder(entries, objects_before);
  }
  stats_.kernel_ns += NowNs() - t0;
  return result;
}

Result<ConflictReport> AssertionStore::AssertBatch(
    const std::vector<ObjectRef>& refs, const std::vector<IdAssertion>& batch) {
  if (batch.empty()) return ConflictReport{};
  last_conflict_.reset();
  int64_t t0 = NowNs();
  // Each named structure's id here: kUnseen until an entry names it, -1
  // while the store lacks it. One lookup per structure, not per endpoint.
  constexpr int kUnseen = -2;
  std::vector<int> id_of(refs.size(), kUnseen);
  int fresh = 0;
  for (const IdAssertion& entry : batch) {
    for (int r : {entry.first, entry.second}) {
      if (id_of[r] != kUnseen) continue;
      id_of[r] = IdOf(refs[r]);
      fresh += id_of[r] < 0;
    }
  }
  const int objects_before = num_objects();
  Grow(objects_before + fresh);
  // Intern in order of first use: the ids the Assert() loop hands out.
  auto id = [&](int r) {
    if (id_of[r] < 0) id_of[r] = Intern(refs[r]);
    return id_of[r];
  };
  std::vector<IdAssertion> entries;
  entries.reserve(batch.size());
  for (const IdAssertion& entry : batch) {
    int first = id(entry.first);
    entries.push_back({first, id(entry.second), entry.type});
  }
  ReserveLog(batch.size());
  Result<ConflictReport> result = ApplyInOrder(entries, objects_before);
  stats_.kernel_ns += NowNs() - t0;
  return result;
}

}  // namespace ecrint::core
