#include "core/integrator.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "common/clock.h"
#include "common/interner.h"
#include "common/strings.h"
#include "core/seeding.h"

namespace ecrint::core {

namespace {

// ---------------------------------------------------------------------------
// Universes. Every pass below works on positions into these lists and on
// the assertion store's dense ids; names are read back only at assembly.
// ---------------------------------------------------------------------------

// The component structures of one kind, in schema order then declaration
// order.
struct Universe {
  StructureKind kind = StructureKind::kObjectClass;
  std::vector<const ecr::Schema*> schemas;  // as listed, repeats included
  std::vector<int> offset;                  // first position per listing
  std::vector<ObjectRef> refs;
  std::vector<const std::vector<ecr::Attribute>*> attributes;
  std::vector<int> listing;  // index into `schemas`
  std::vector<int> ids;      // store id, -1 when the store never saw it
  // The position a lookup by name resolves to: the same structure in the
  // last listing of its schema (itself unless a schema is listed twice).
  std::vector<int> canonical;

  int size() const { return static_cast<int>(refs.size()); }

  // Canonical position of the named structure, or -1.
  int PositionOf(const std::string& schema, const std::string& name) const {
    for (int k = static_cast<int>(schemas.size()) - 1; k >= 0; --k) {
      if (schemas[k]->name() != schema) continue;
      int index = kind == StructureKind::kObjectClass
                      ? schemas[k]->FindObject(name)
                      : schemas[k]->FindRelationship(name);
      return index < 0 ? -1 : offset[k] + index;
    }
    return -1;
  }
};

Universe MakeUniverse(const std::vector<const ecr::Schema*>& schemas,
                      StructureKind kind, const AssertionStore& store) {
  Universe u;
  u.kind = kind;
  u.schemas = schemas;
  int listings = static_cast<int>(schemas.size());
  int total = 0;
  for (const ecr::Schema* schema : schemas) {
    total += kind == StructureKind::kObjectClass ? schema->num_objects()
                                                 : schema->num_relationships();
  }
  u.refs.reserve(total);
  u.attributes.reserve(total);
  u.listing.reserve(total);
  for (int k = 0; k < listings; ++k) {
    const ecr::Schema& schema = *schemas[k];
    u.offset.push_back(u.size());
    bool objects = kind == StructureKind::kObjectClass;
    int count = objects ? schema.num_objects() : schema.num_relationships();
    for (int i = 0; i < count; ++i) {
      const std::string& name =
          objects ? schema.object(i).name : schema.relationship(i).name;
      u.refs.push_back({schema.name(), name});
      u.attributes.push_back(objects ? &schema.object(i).attributes
                                     : &schema.relationship(i).attributes);
      u.listing.push_back(k);
    }
  }
  u.canonical.resize(u.refs.size());
  u.ids.resize(u.refs.size());
  for (int p = 0; p < u.size(); ++p) {
    int k = u.listing[p];
    int last = k;
    for (int later = k + 1; later < listings; ++later) {
      if (schemas[later]->name() == schemas[k]->name()) last = later;
    }
    u.canonical[p] = u.offset[last] + (p - u.offset[k]);
    u.ids[p] = store.IdOf(u.refs[p]);
  }
  return u;
}

// ---------------------------------------------------------------------------
// Lattice construction shared by object-class and relationship integration.
// ---------------------------------------------------------------------------

// One node of the integrated lattice: an EQ-merged group of component
// structures, or a D_-derived generalization introduced for an overlap /
// disjoint-integrable pair.
struct Node {
  std::vector<int> sources;  // universe positions; empty for derived nodes
  std::string name;
  ecr::ObjectOrigin origin = ecr::ObjectOrigin::kComponent;
  std::vector<int> parents;  // full (pre-reduction) edge set, ascending
  std::vector<ecr::Attribute> attributes;  // filled by placement
};

// Topological order, parents before children, stable by node index.
std::vector<int> TopoOrder(const std::vector<Node>& nodes) {
  int n = static_cast<int>(nodes.size());
  std::vector<int> out;
  out.reserve(n);
  std::vector<char> done(n, 0);
  auto visit = [&](auto&& self, int node) -> void {
    if (done[node]) return;
    done[node] = 1;
    for (int parent : nodes[node].parents) self(self, parent);
    out.push_back(node);
  };
  for (int i = 0; i < n; ++i) visit(visit, i);
  return out;
}

struct Lattice {
  std::vector<Node> nodes;
  std::vector<int> node_of;  // universe position -> node

  // Filled by Close(), once per finished edge set: each node's depth (the
  // longest path to a root; deeper nodes are more specific) and its
  // ancestors-or-self as a row of `words` bitset words.
  std::vector<int> depth;
  std::vector<uint64_t> ancestors;
  int words = 0;

  const uint64_t* AncestorRow(int node) const {
    return &ancestors[static_cast<size_t>(node) * words];
  }

  // Requires an acyclic edge set.
  void Close() {
    int n = static_cast<int>(nodes.size());
    words = (n + 63) / 64;
    depth.assign(n, 0);
    ancestors.assign(static_cast<size_t>(n) * words, 0);
    for (int node : TopoOrder(nodes)) {
      uint64_t* row = &ancestors[static_cast<size_t>(node) * words];
      row[node >> 6] |= uint64_t{1} << (node & 63);
      for (int parent : nodes[node].parents) {
        depth[node] = std::max(depth[node], depth[parent] + 1);
        const uint64_t* parent_row = AncestorRow(parent);
        for (int w = 0; w < words; ++w) row[w] |= parent_row[w];
      }
    }
  }

  // True if `ancestor` is reachable from `node` (or equal).
  bool IsAncestorOrSelf(int node, int ancestor) const {
    return (AncestorRow(node)[ancestor >> 6] >> (ancestor & 63)) & 1;
  }

  // The most specific node that is an ancestor-or-self of every node in
  // `owners` (non-empty), or -1 when none exists. Owners are ancestors of
  // each other only when one generalizes all; the deepest common ancestor
  // is the most specific placement. Ties break to the lowest node index for
  // determinism.
  int Placement(std::span<const int> owners) const {
    int best = -1;
    int best_depth = -1;
    for (int w = 0; w < words; ++w) {
      uint64_t common = AncestorRow(owners[0])[w];
      for (size_t i = 1; i < owners.size() && common != 0; ++i) {
        common &= AncestorRow(owners[i])[w];
      }
      for (uint64_t bits = common; bits != 0; bits &= bits - 1) {
        int candidate = (w << 6) + std::countr_zero(bits);
        if (depth[candidate] > best_depth) {
          best = candidate;
          best_depth = depth[candidate];
        }
      }
    }
    return best;
  }

  // Most specific common ancestor-or-self of two nodes, or -1.
  int CommonAncestor(int a, int b) const {
    const int pair[] = {a, b};
    return Placement(pair);
  }
};

std::string Fragment(const std::string& name, int length) {
  std::string_view base = name;
  // Strip integration prefixes so D_(E_Student) reads D_Stud... not D_E_St.
  if (StartsWith(base, "E_") || StartsWith(base, "D_")) base.remove_prefix(2);
  return std::string(base.substr(0, static_cast<size_t>(length)));
}

// Claims `name` in `used`; false when it was taken already.
bool ClaimName(common::StringInterner& used, const std::string& name) {
  int before = used.size();
  used.Intern(name);
  return used.size() > before;
}

// Reserves a name, appending _2, _3, ... on collision.
std::string UniqueName(const std::string& candidate,
                       common::StringInterner& used) {
  std::string name = candidate;
  int suffix = 2;
  while (!ClaimName(used, name)) {
    name = candidate + "_" + std::to_string(suffix++);
  }
  return name;
}

// Builds the EQ-merged node set, subset edges and derived generalizations
// for one structure kind.
Result<Lattice> BuildLattice(const Universe& universe,
                             const AssertionStore& store,
                             const IntegrationOptions& options,
                             common::StringInterner& used_names) {
  Lattice lattice;
  int n = universe.size();

  // Union-find over "equals" pairs.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int x, int y) {
    x = find(x);
    y = find(y);
    parent[std::max(x, y)] = std::min(x, y);
  };

  // First position of each store id. A structure listed twice is equal to
  // itself, so its later positions join the first.
  std::vector<int> first_at(store.num_objects(), -1);
  for (int i = 0; i < n; ++i) {
    int id = universe.ids[i];
    if (id < 0) continue;
    if (first_at[id] < 0) {
      first_at[id] = i;
    } else {
      unite(i, first_at[id]);
    }
  }

  // One pass over the store's pinned pairs among the universe collects the
  // equals, subset and overlap pairs; ambiguous and disjoint pairs add
  // nothing to the lattice.
  std::vector<std::pair<int, int>> subsets;  // (child, parent) positions
  std::vector<std::pair<int, int>> overlaps;
  for (int i = 0; i < n; ++i) {
    int a = universe.ids[i];
    if (a < 0 || first_at[a] != i) continue;
    store.ForEachPinnedAbove(a, [&](int b) {
      int j = first_at[b];
      if (j < 0) return;
      switch (store.RelationAt(a, b)) {
        case MaskOf(SetRelation::kEqual):
          unite(i, j);
          break;
        case MaskOf(SetRelation::kSubset):
          subsets.push_back({i, j});
          break;
        case MaskOf(SetRelation::kSuperset):
          subsets.push_back({j, i});
          break;
        case MaskOf(SetRelation::kOverlap):
          overlaps.push_back({i, j});
          break;
        default:
          break;
      }
    });
  }

  // Nodes in order of first member occurrence.
  lattice.node_of.resize(n);
  lattice.nodes.reserve(n);
  std::vector<int> node_of_root(n, -1);
  for (int i = 0; i < n; ++i) {
    int& node = node_of_root[find(i)];
    if (node < 0) {
      node = static_cast<int>(lattice.nodes.size());
      lattice.nodes.emplace_back();
    }
    lattice.nodes[node].sources.push_back(i);
    lattice.node_of[i] = node;
  }

  // Subset edges between distinct nodes.
  for (auto [child, parent_position] : subsets) {
    int from = lattice.node_of[child];
    int to = lattice.node_of[parent_position];
    if (from != to) lattice.nodes[from].parents.push_back(to);
  }
  for (Node& node : lattice.nodes) {
    std::sort(node.parents.begin(), node.parents.end());
    node.parents.erase(std::unique(node.parents.begin(), node.parents.end()),
                       node.parents.end());
  }

  // Derived generalizations: one per node pair connected by an established
  // overlap or a user-asserted disjoint-integrable assertion, in (min, max)
  // node order.
  std::vector<std::pair<int, int>> derived_pairs;
  auto add_derived = [&](int i, int j) {
    int a = lattice.node_of[i];
    int b = lattice.node_of[j];
    if (a != b) derived_pairs.push_back({std::min(a, b), std::max(a, b)});
  };
  for (auto [i, j] : overlaps) add_derived(i, j);
  for (auto [a, b] : store.disjoint_integrable_pairs()) {
    if (first_at[a] >= 0 && first_at[b] >= 0) {
      add_derived(first_at[a], first_at[b]);
    }
  }
  std::sort(derived_pairs.begin(), derived_pairs.end());
  derived_pairs.erase(std::unique(derived_pairs.begin(), derived_pairs.end()),
                      derived_pairs.end());

  // Name base nodes before derived ones (derived names reference them).
  for (Node& node : lattice.nodes) {
    const ObjectRef& front = universe.refs[node.sources.front()];
    if (node.sources.size() == 1) {
      node.origin = ecr::ObjectOrigin::kComponent;
      node.name = ClaimName(used_names, front.object)
                      ? front.object
                      : UniqueName(front.schema + "_" + front.object,
                                   used_names);
      continue;
    }
    node.origin = ecr::ObjectOrigin::kEquivalent;
    bool all_same = true;
    for (int source : node.sources) {
      all_same &= universe.refs[source].object == front.object;
    }
    std::string candidate;
    if (all_same) {
      candidate = "E_" + front.object;
    } else {
      candidate = "E";
      for (int source : node.sources) {
        candidate += "_" + Fragment(universe.refs[source].object,
                                    options.name_prefix_length);
      }
    }
    node.name = UniqueName(candidate, used_names);
  }

  // The closure guarantees consistency, so the edge set must be acyclic.
  // (Derived nodes added below have no parents and cannot close a cycle.)
  std::vector<int> color(lattice.nodes.size(), 0);
  auto dfs = [&](auto&& self, int node) -> bool {
    color[node] = 1;
    for (int p : lattice.nodes[node].parents) {
      if (color[p] == 1) return false;
      if (color[p] == 0 && !self(self, p)) return false;
    }
    color[node] = 2;
    return true;
  };
  for (size_t i = 0; i < lattice.nodes.size(); ++i) {
    if (color[i] == 0 && !dfs(dfs, static_cast<int>(i))) {
      return InternalError("integration lattice acquired a cycle; "
                           "assertions and schema structure disagree");
    }
  }

  // Skip a pair when one side already generalizes the other through other
  // edges (e.g. overlap later subsumed by an equals chain elsewhere). A
  // derived node has no parents, so adding one never changes which base
  // nodes reach each other: the base lattice's closure answers every check.
  lattice.Close();
  const size_t base_nodes = lattice.nodes.size();
  for (const auto& [a, b] : derived_pairs) {
    if (lattice.IsAncestorOrSelf(a, b) || lattice.IsAncestorOrSelf(b, a)) {
      continue;
    }
    Node derived;
    derived.origin = ecr::ObjectOrigin::kDerived;
    derived.name = UniqueName(
        "D_" + Fragment(lattice.nodes[a].name, options.name_prefix_length) +
            "_" + Fragment(lattice.nodes[b].name, options.name_prefix_length),
        used_names);
    int id = static_cast<int>(lattice.nodes.size());
    lattice.nodes.push_back(std::move(derived));
    // Parent lists stay ascending: `id` exceeds every node before it.
    lattice.nodes[a].parents.push_back(id);
    lattice.nodes[b].parents.push_back(id);
  }
  if (lattice.nodes.size() != base_nodes) lattice.Close();
  return lattice;
}

// Direct parents after transitive reduction.
std::vector<int> DirectParents(const Lattice& lattice, int node,
                               bool reduce) {
  const std::vector<int>& parents = lattice.nodes[node].parents;
  if (!reduce) return parents;
  std::vector<int> out;
  for (int p : parents) {
    bool implied = false;
    for (int q : parents) {
      // p implied when reachable from another parent q.
      if (q != p && lattice.IsAncestorOrSelf(q, p)) {
        implied = true;
        break;
      }
    }
    if (!implied) out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Attribute placement.
// ---------------------------------------------------------------------------

ecr::Domain MergeDomains(const ecr::Domain& a, const ecr::Domain& b) {
  if (a == b) return a;
  if (a.type() != b.type()) return a;  // equivalence required comparability
  std::string unit = a.unit() == b.unit() ? a.unit() : std::string();
  ecr::Domain merged(a.type());
  switch (a.type()) {
    case ecr::DomainType::kChar:
      if (a.max_length().has_value() && b.max_length().has_value()) {
        merged = ecr::Domain::CharN(
            std::max(*a.max_length(), *b.max_length()));
      }
      break;
    case ecr::DomainType::kInt:
    case ecr::DomainType::kReal:
      if (a.lower_bound().has_value() && b.lower_bound().has_value() &&
          a.upper_bound().has_value() && b.upper_bound().has_value()) {
        double lo = std::min(*a.lower_bound(), *b.lower_bound());
        double hi = std::max(*a.upper_bound(), *b.upper_bound());
        merged = a.type() == ecr::DomainType::kInt
                     ? ecr::Domain::IntRange(static_cast<long long>(lo),
                                             static_cast<long long>(hi))
                     : ecr::Domain::RealRange(lo, hi);
      }
      break;
    default:
      break;
  }
  if (!unit.empty()) merged.set_unit(unit);
  return merged;
}

// One component attribute and where placement put it.
struct SourceAttribute {
  int position = -1;  // universe position of the declaring structure
  const ecr::Attribute* attribute = nullptr;
  int node = -1;      // lattice node of the structure's canonical position
  int target_node = -1;
  // The representative's name on target_node when it differs from the
  // attribute's own (a derived attribute, or a copy renamed on collision).
  std::string target_name;
  bool consumed = false;  // merged into a derived attribute

  const std::string& TargetName() const {
    return target_name.empty() ? attribute->name : target_name;
  }
};

// The component attributes of one universe, laid out by position.
struct AttributeTable {
  std::vector<SourceAttribute> entries;
  std::vector<int> begin;  // first entry of each position
  // Per canonical entry: the entry whose placement the mappings report.
  // Placement writes each attribute path's target once per entry — derived
  // attributes first, then copies in entry order — and the last write
  // wins; only a schema listed twice gives a path two entries.
  std::vector<int> survivor;

  int Canonical(const Universe& universe, int entry) const {
    int p = entries[entry].position;
    return begin[universe.canonical[p]] + (entry - begin[p]);
  }

  // The entry of the attribute at `path`, or -1 when this universe does
  // not declare it.
  int EntryOf(const Universe& universe,
              const ecr::AttributePath& path) const {
    int p = universe.PositionOf(path.schema, path.object);
    if (p < 0) return -1;
    const std::vector<ecr::Attribute>& attributes = *universe.attributes[p];
    for (size_t t = 0; t < attributes.size(); ++t) {
      if (attributes[t].name == path.attribute) {
        return begin[p] + static_cast<int>(t);
      }
    }
    return -1;
  }
};

AttributeTable MakeAttributeTable(const Universe& universe,
                                  const Lattice& lattice) {
  AttributeTable table;
  table.begin.reserve(universe.size());
  size_t total = 0;
  for (const std::vector<ecr::Attribute>* attributes : universe.attributes) {
    total += attributes->size();
  }
  table.entries.reserve(total);
  for (int p = 0; p < universe.size(); ++p) {
    table.begin.push_back(static_cast<int>(table.entries.size()));
    for (const ecr::Attribute& a : *universe.attributes[p]) {
      table.entries.push_back(
          {p, &a, lattice.node_of[universe.canonical[p]], -1, {}, false});
    }
  }
  table.survivor.resize(table.entries.size());
  std::iota(table.survivor.begin(), table.survivor.end(), 0);
  return table;
}

ecr::AttributePath PathOf(const Universe& universe,
                          const SourceAttribute& a) {
  const ObjectRef& ref = universe.refs[a.position];
  return {ref.schema, ref.object, a.attribute->name};
}

bool HasAttribute(const Node& node, std::string_view name) {
  for (const ecr::Attribute& a : node.attributes) {
    if (a.name == name) return true;
  }
  return false;
}

// The equivalence map's nontrivial classes as attribute-table entries of
// one universe, flattened: class c is entries[begin[c], begin[c + 1]), in
// path order. Classes keep their class-number order; members another
// universe declares are left out.
struct ClassEntries {
  std::vector<int> entries;
  std::vector<int> begin = {0};

  int size() const { return static_cast<int>(begin.size()) - 1; }
  std::span<const int> Members(int c) const {
    return {entries.data() + begin[c],
            static_cast<size_t>(begin[c + 1] - begin[c])};
  }
  void EndClass() { begin.push_back(static_cast<int>(entries.size())); }
};

// Derived-attribute name from its component names: D_<name> when all agree,
// D_<frag>_<frag>... otherwise.
std::string DerivedAttributeName(const AttributeTable& table,
                                 std::span<const int> members,
                                 int fragment_length) {
  std::vector<const std::string*> names;
  for (int m : members) {
    const std::string* name = &table.entries[m].attribute->name;
    bool seen = false;
    for (const std::string* kept : names) seen = seen || *kept == *name;
    if (!seen) names.push_back(name);
  }
  if (names.size() == 1) return "D_" + *names.front();
  std::string out = "D";
  for (const std::string* name : names) {
    out += "_" + Fragment(*name, fragment_length);
  }
  return out;
}

// Runs equivalence-class merging and attribute copying over one lattice.
// Fills node.attributes, emits DerivedAttributeInfo records and each
// entry's target, which the mappings read.
void PlaceAttributes(Lattice& lattice, const Universe& universe,
                     AttributeTable& table, const ClassEntries& classes,
                     const IntegrationOptions& options,
                     std::vector<DerivedAttributeInfo>& derived_out) {
  std::vector<int> owners;
  for (int c = 0; c < classes.size(); ++c) {
    std::span<const int> members = classes.Members(c);
    if (members.size() < 2) continue;  // class does not span this lattice
    owners.clear();
    for (int m : members) owners.push_back(table.entries[m].node);
    int placement = lattice.Placement(owners);
    if (placement < 0) continue;  // no common generalization; copy as-is

    ecr::Attribute merged;
    merged.name =
        DerivedAttributeName(table, members, options.name_prefix_length);
    merged.domain = table.entries[members.front()].attribute->domain;
    merged.is_key = true;
    for (int m : members) {
      const ecr::Attribute& a = *table.entries[m].attribute;
      merged.domain = MergeDomains(merged.domain, a.domain);
      merged.is_key = merged.is_key && a.is_key;
    }
    Node& owner = lattice.nodes[placement];
    while (HasAttribute(owner, merged.name)) merged.name += "_x";

    DerivedAttributeInfo& info = derived_out.emplace_back();
    info.owner = owner.name;
    info.name = merged.name;
    info.components.reserve(members.size());
    for (int m : members) {
      SourceAttribute& a = table.entries[m];
      info.components.push_back(PathOf(universe, a));
      a.consumed = true;
      a.target_node = placement;
      a.target_name = merged.name;
    }
    owner.attributes.push_back(std::move(merged));
  }

  // Copy every unconsumed attribute onto its node, renaming on collision.
  for (size_t e = 0; e < table.entries.size(); ++e) {
    SourceAttribute& a = table.entries[e];
    if (a.consumed) continue;
    Node& node = lattice.nodes[a.node];
    if (HasAttribute(node, a.attribute->name)) {
      a.target_name = universe.refs[a.position].schema + "_" +
                      a.attribute->name;
      while (HasAttribute(node, a.target_name)) a.target_name += "_x";
    }
    a.target_node = a.node;
    ecr::Attribute& copy = node.attributes.emplace_back(*a.attribute);
    if (!a.target_name.empty()) copy.name = a.target_name;
    table.survivor[table.Canonical(universe, static_cast<int>(e))] =
        static_cast<int>(e);
  }
}

// ---------------------------------------------------------------------------
// Relationship participant merging.
// ---------------------------------------------------------------------------

// A participant expressed against object-lattice node ids.
struct NodeParticipation {
  int node = -1;
  int min_card = 0;
  int max_card = ecr::kUnboundedCardinality;
  std::string role;
};

int MergedMax(int a, int b) {
  if (a == ecr::kUnboundedCardinality || b == ecr::kUnboundedCardinality) {
    return ecr::kUnboundedCardinality;
  }
  return std::max(a, b);
}

// Widens `into` so both original constraints remain satisfiable and lifts
// the participant to the common generalization of the two object nodes.
void MergeParticipant(NodeParticipation& into, const NodeParticipation& from,
                      const Lattice& objects) {
  int common = objects.CommonAncestor(into.node, from.node);
  if (common >= 0) into.node = common;
  into.min_card = std::min(into.min_card, from.min_card);
  into.max_card = MergedMax(into.max_card, from.max_card);
  if (into.role.empty()) into.role = from.role;
}

// True if the two participants may describe the same role: their object
// nodes are related through the lattice.
bool ParticipantsCompatible(const NodeParticipation& a,
                            const NodeParticipation& b,
                            const Lattice& objects) {
  return objects.CommonAncestor(a.node, b.node) >= 0;
}

std::vector<NodeParticipation> MergeParticipantLists(
    const std::vector<NodeParticipation>& base,
    const std::vector<NodeParticipation>& extra, const Lattice& objects) {
  std::vector<NodeParticipation> out = base;
  std::vector<char> matched(base.size(), 0);
  for (const NodeParticipation& p : extra) {
    bool merged = false;
    // Each participant of `base` absorbs at most one of `extra`; those
    // appended from `extra` are roles of one relationship and stay apart.
    for (size_t i = 0; i < base.size(); ++i) {
      if (matched[i]) continue;
      if (ParticipantsCompatible(out[i], p, objects)) {
        MergeParticipant(out[i], p, objects);
        matched[i] = 1;
        merged = true;
        break;
      }
    }
    if (!merged) out.push_back(p);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Integrate().
// ---------------------------------------------------------------------------

Status SeedForIntegration(AssertionStore& assertions,
                          const ecr::Catalog& catalog,
                          const std::vector<std::string>& schemas,
                          const IntegrationOptions& options) {
  // Seed within-schema structure into the closure; contradictions between
  // DDA assertions and component structure surface here. All schemas are
  // seeded as one batch on ids, applied in order, not clustered: once the
  // DDA has related the schemas, their seeds form one connected component,
  // where the clustered path would fall back to this order anyway.
  SeedOptions seed;
  seed.category_containment = options.seed_category_containment;
  seed.entity_disjointness = options.seed_entity_disjointness;
  std::vector<const ecr::Schema*> components;
  components.reserve(schemas.size());
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    components.push_back(schema);
  }
  return SeedSchemas(assertions, components, seed);
}

Result<IntegrationResult> Integrate(const ecr::Catalog& catalog,
                                    const std::vector<std::string>& schemas,
                                    const EquivalenceMap& equivalence,
                                    AssertionStore assertions,
                                    const IntegrationOptions& options) {
  ECRINT_RETURN_IF_ERROR(
      SeedForIntegration(assertions, catalog, schemas, options));
  return IntegrateSeeded(catalog, schemas, equivalence, assertions, options);
}

Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& assertions,
    const IntegrationOptions& options, IntegrateTimings* timings) {
  // Charges the time since the previous lap to one sub-phase.
  common::Stopwatch watch(common::RealClock());
  auto lap = [&](int64_t IntegrateTimings::*phase) {
    if (timings == nullptr) return;
    timings->*phase += watch.ElapsedNs();
    watch.Restart();
  };
  if (schemas.empty()) {
    return InvalidArgumentError("Integrate needs at least one schema");
  }
  std::vector<const ecr::Schema*> components;
  components.reserve(schemas.size());
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    components.push_back(schema);
  }

  Universe object_universe =
      MakeUniverse(components, StructureKind::kObjectClass, assertions);
  Universe relationship_universe =
      MakeUniverse(components, StructureKind::kRelationshipSet, assertions);

  common::StringInterner used_names;
  used_names.Reserve(2 * static_cast<size_t>(object_universe.size() +
                                             relationship_universe.size()));
  ECRINT_ASSIGN_OR_RETURN(
      Lattice objects,
      BuildLattice(object_universe, assertions, options, used_names));
  ECRINT_ASSIGN_OR_RETURN(
      Lattice rels,
      BuildLattice(relationship_universe, assertions, options, used_names));

  lap(&IntegrateTimings::lattice_ns);

  IntegrationResult result;
  result.schema.set_name(options.result_name);
  result.object_clusters = BuildClusters(assertions, object_universe.refs,
                                         object_universe.ids);
  result.relationship_clusters = BuildClusters(
      assertions, relationship_universe.refs, relationship_universe.ids);
  lap(&IntegrateTimings::clusters_ns);

  // --- attributes ----------------------------------------------------------
  AttributeTable object_attributes = MakeAttributeTable(object_universe,
                                                        objects);
  AttributeTable relationship_attributes =
      MakeAttributeTable(relationship_universe, rels);
  // Each class member resolves once to the table entry of the universe that
  // declares it (object and relationship names never coincide in a schema).
  ClassEntries object_classes;
  ClassEntries relationship_classes;
  for (std::vector<int>& ids : equivalence.NontrivialClassIndices()) {
    std::sort(ids.begin(), ids.end(), [&](int x, int y) {
      return equivalence.PathAt(x) < equivalence.PathAt(y);
    });
    for (int id : ids) {
      const ecr::AttributePath& path = equivalence.PathAt(id);
      int entry = object_attributes.EntryOf(object_universe, path);
      if (entry >= 0) {
        object_classes.entries.push_back(entry);
        continue;
      }
      entry = relationship_attributes.EntryOf(relationship_universe, path);
      if (entry >= 0) relationship_classes.entries.push_back(entry);
    }
    object_classes.EndClass();
    relationship_classes.EndClass();
  }
  PlaceAttributes(objects, object_universe, object_attributes,
                  object_classes, options, result.derived_attributes);
  PlaceAttributes(rels, relationship_universe, relationship_attributes,
                  relationship_classes, options, result.derived_attributes);
  lap(&IntegrateTimings::attributes_ns);

  // --- assemble object classes --------------------------------------------
  std::vector<int> object_order = TopoOrder(objects.nodes);
  std::vector<ecr::ObjectId> node_to_id(objects.nodes.size(),
                                        ecr::kNoObject);
  for (int node : object_order) {
    Node& n = objects.nodes[node];
    std::vector<int> parents =
        DirectParents(objects, node, options.transitive_reduction);
    Result<ecr::ObjectId> id = ecr::kNoObject;
    if (parents.empty()) {
      id = result.schema.AddEntitySet(n.name);
    } else {
      std::vector<ecr::ObjectId> parent_ids;
      parent_ids.reserve(parents.size());
      for (int p : parents) parent_ids.push_back(node_to_id[p]);
      id = result.schema.AddCategory(n.name, parent_ids);
    }
    if (!id.ok()) return id.status();
    node_to_id[node] = *id;
    result.schema.mutable_object(*id).origin = n.origin;
    for (ecr::Attribute& a : n.attributes) {
      // Placement keeps names unique per node; a category can still
      // inherit a clash (an ancestor copied an identically named
      // attribute), so rename.
      while (!parents.empty() &&
             result.schema.HasAttributeInScope(*id, a.name)) {
        a.name += "_x";
      }
      ECRINT_RETURN_IF_ERROR(
          result.schema.AddObjectAttribute(*id, std::move(a)));
    }
  }

  // --- assemble relationship sets -----------------------------------------
  // Participants of the source relationship at `position`, against object
  // node ids; a schema listed twice contributes them once per listing.
  auto source_participants =
      [&](int position) -> std::vector<NodeParticipation> {
    const Universe& u = relationship_universe;
    int listing = u.listing[position];
    int index = position - u.offset[listing];
    std::vector<NodeParticipation> out;
    for (size_t k = 0; k < components.size(); ++k) {
      const ecr::Schema& schema = *components[k];
      if (schema.name() != components[listing]->name()) continue;
      for (const ecr::Participation& p :
           schema.relationship(index).participants) {
        int object = object_universe.canonical[object_universe.offset[k] +
                                               p.object];
        out.push_back({objects.node_of[object], p.min_card, p.max_card,
                       p.role});
      }
    }
    return out;
  };

  std::vector<int> rel_order = TopoOrder(rels.nodes);
  std::vector<std::vector<NodeParticipation>> rel_participants(
      rels.nodes.size());
  // Children before parents so a derived relationship can generalize its
  // children's already-merged participant lists; TopoOrder gives parents
  // first, so iterate it in reverse.
  for (auto it = rel_order.rbegin(); it != rel_order.rend(); ++it) {
    int node = *it;
    const Node& n = rels.nodes[node];
    std::vector<NodeParticipation> merged;
    for (int source : n.sources) {
      merged = merged.empty()
                   ? source_participants(source)
                   : MergeParticipantLists(merged,
                                           source_participants(source),
                                           objects);
    }
    if (n.sources.empty()) {
      // Derived relationship: generalize over its children.
      for (size_t child = 0; child < rels.nodes.size(); ++child) {
        const std::vector<int>& parents = rels.nodes[child].parents;
        if (!std::binary_search(parents.begin(), parents.end(), node)) {
          continue;
        }
        merged = merged.empty()
                     ? rel_participants[child]
                     : MergeParticipantLists(merged, rel_participants[child],
                                             objects);
      }
    }
    rel_participants[node] = std::move(merged);
  }

  std::vector<ecr::RelationshipId> rel_node_to_id(rels.nodes.size(), -1);
  for (int node : rel_order) {
    const Node& n = rels.nodes[node];
    std::vector<ecr::Participation> participants;
    for (const NodeParticipation& p : rel_participants[node]) {
      participants.push_back(ecr::Participation{
          node_to_id[p.node], p.min_card, p.max_card, p.role});
    }
    if (participants.size() < 2) {
      return InternalError("relationship '" + n.name +
                           "' merged to fewer than two participants");
    }
    ECRINT_ASSIGN_OR_RETURN(
        ecr::RelationshipId id,
        result.schema.AddRelationship(n.name, participants));
    rel_node_to_id[node] = id;
    result.schema.mutable_relationship(id).origin = n.origin;
    for (const ecr::Attribute& a : n.attributes) {
      ecr::Attribute attr = a;
      Status status = result.schema.AddRelationshipAttribute(id, attr);
      while (status.code() == StatusCode::kAlreadyExists) {
        attr.name += "_x";
        status = result.schema.AddRelationshipAttribute(id, attr);
      }
      if (!status.ok()) return status;
    }
  }
  for (int node : rel_order) {
    std::vector<int> parents =
        DirectParents(rels, node, options.transitive_reduction);
    for (int p : parents) {
      result.schema.mutable_relationship(rel_node_to_id[node])
          .parents.push_back(rel_node_to_id[p]);
    }
  }

  lap(&IntegrateTimings::assemble_ns);

  // --- provenance & mappings ----------------------------------------------
  result.structures.reserve(objects.nodes.size() + rels.nodes.size());
  result.mappings.reserve(object_universe.size() +
                          relationship_universe.size());
  auto emit_infos = [&result](const Lattice& lattice,
                              const Universe& universe) {
    for (const Node& node : lattice.nodes) {
      IntegratedStructureInfo& info = result.structures.emplace_back();
      info.name = node.name;
      info.kind = universe.kind;
      info.origin = node.origin;
      info.sources.reserve(node.sources.size());
      for (int source : node.sources) {
        info.sources.push_back(universe.refs[source]);
      }
    }
  };
  emit_infos(objects, object_universe);
  emit_infos(rels, relationship_universe);

  // Each source's attributes in name order, as placement last wrote them.
  auto emit_mappings = [&result](const Lattice& lattice,
                                 const Universe& universe,
                                 const AttributeTable& table) {
    std::vector<int> order;
    for (const Node& node : lattice.nodes) {
      for (int source : node.sources) {
        StructureMapping& mapping = result.mappings.emplace_back();
        mapping.source = universe.refs[source];
        mapping.kind = universe.kind;
        mapping.target = node.name;
        int p = universe.canonical[source];
        const std::vector<ecr::Attribute>& attributes = *universe.attributes[p];
        mapping.attributes.reserve(attributes.size());
        order.resize(attributes.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int x, int y) {
          return attributes[x].name < attributes[y].name;
        });
        for (int t : order) {
          const SourceAttribute& a =
              table.entries[table.survivor[table.begin[p] + t]];
          mapping.attributes.push_back(AttributeMapping{
              a.attribute->name, lattice.nodes[a.target_node].name,
              a.TargetName()});
        }
      }
    }
  };
  emit_mappings(objects, object_universe, object_attributes);
  emit_mappings(rels, relationship_universe, relationship_attributes);
  lap(&IntegrateTimings::mappings_ns);

  return result;
}

}  // namespace ecrint::core
