// The all-pairs phase-4 algorithm that core::IntegrateSeeded replaced,
// kept as the oracle for the differential test: every pair of component
// structures is probed through the public PossibleRelations /
// IsIntegrating API, and the lattice helpers recompute ancestors and depths
// on every call. One fix is shared with the new code: MergeParticipantLists
// no longer reads its match flags past their end.

#include "reference_integrator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/strings.h"

namespace ecrint::core::reference {

namespace {

// The pre-change BuildClusters: IsIntegrating probed for every pair.
std::vector<Cluster> AllPairsClusters(const AssertionStore& store,
                                      const std::vector<ObjectRef>& universe) {
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

  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (store.IsIntegrating(universe[i], universe[j])) {
        parent[find(i)] = find(j);
      }
    }
  }

  std::map<int, Cluster> by_root;
  for (int i = 0; i < n; ++i) by_root[find(i)].members.push_back(universe[i]);
  std::vector<Cluster> clusters;
  clusters.reserve(by_root.size());
  for (auto& [root, cluster] : by_root) {
    std::sort(cluster.members.begin(), cluster.members.end());
    clusters.push_back(std::move(cluster));
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.members.front() < b.members.front();
            });
  return clusters;
}


// ---------------------------------------------------------------------------
// Lattice construction shared by object-class and relationship integration.
// ---------------------------------------------------------------------------

// One node of the integrated lattice: an EQ-merged group of component
// structures, or a D_-derived generalization introduced for an overlap /
// disjoint-integrable pair.
struct Node {
  std::vector<ObjectRef> sources;  // empty for derived nodes
  std::string name;
  ecr::ObjectOrigin origin = ecr::ObjectOrigin::kComponent;
  std::set<int> parents;  // full (pre-reduction) edge set, child -> parent
  std::vector<ecr::Attribute> attributes;  // filled by placement
};

struct Lattice {
  std::vector<Node> nodes;
  std::map<ObjectRef, int> node_of;

  // Ancestors-or-self of `node` over the full parent edge set.
  std::set<int> AncestorsOrSelf(int node) const {
    std::set<int> out;
    std::vector<int> stack = {node};
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      if (!out.insert(id).second) continue;
      for (int parent : nodes[id].parents) stack.push_back(parent);
    }
    return out;
  }

  // Depth = longest path to a root; deeper nodes are more specific.
  int Depth(int node) const {
    int best = 0;
    for (int parent : nodes[node].parents) {
      best = std::max(best, Depth(parent) + 1);
    }
    return best;
  }

  // The most specific node that is an ancestor-or-self of every node in
  // `owners`, or -1 when none exists.
  int Placement(const std::set<int>& owners) const {
    if (owners.empty()) return -1;
    auto it = owners.begin();
    std::set<int> common = AncestorsOrSelf(*it);
    for (++it; it != owners.end(); ++it) {
      std::set<int> next = AncestorsOrSelf(*it);
      std::set<int> kept;
      std::set_intersection(common.begin(), common.end(), next.begin(),
                            next.end(), std::inserter(kept, kept.begin()));
      common = std::move(kept);
      if (common.empty()) return -1;
    }
    // Owners are ancestors of each other only when one generalizes all; the
    // deepest common ancestor is the most specific placement. Ties break to
    // the lowest node index for determinism.
    int best = -1;
    int best_depth = -1;
    for (int candidate : common) {
      int depth = Depth(candidate);
      if (depth > best_depth) {
        best = candidate;
        best_depth = depth;
      }
    }
    return best;
  }

  // Most specific common ancestor-or-self of two nodes, or -1.
  int CommonAncestor(int a, int b) const { return Placement({a, b}); }

  // True if `ancestor` is reachable from `node` (or equal).
  bool IsAncestorOrSelf(int node, int ancestor) const {
    return AncestorsOrSelf(node).count(ancestor) > 0;
  }
};

std::string Fragment(const std::string& name, int length) {
  std::string_view base = name;
  // Strip integration prefixes so D_(E_Student) reads D_Stud... not D_E_St.
  if (StartsWith(base, "E_") || StartsWith(base, "D_")) base.remove_prefix(2);
  return std::string(base.substr(0, static_cast<size_t>(length)));
}

// Reserves a name, appending _2, _3, ... on collision.
std::string UniqueName(const std::string& candidate,
                       std::set<std::string>& used) {
  std::string name = candidate;
  int suffix = 2;
  while (!used.insert(name).second) {
    name = candidate + "_" + std::to_string(suffix++);
  }
  return name;
}

// Builds the EQ-merged node set, subset edges and derived generalizations
// for one structure kind. `universe` lists the component structures in
// deterministic order.
Result<Lattice> BuildLattice(const std::vector<ObjectRef>& universe,
                             const AssertionStore& store,
                             const IntegrationOptions& options,
                             std::set<std::string>& used_names) {
  Lattice lattice;
  int n = static_cast<int>(universe.size());

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
  auto relation = [&](int i, int j) -> RelationSet {
    return store.PossibleRelations(universe[i], universe[j]);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      RelationSet r = relation(i, j);
      if (RelationCount(r) == 1 && TheRelation(r) == SetRelation::kEqual) {
        parent[std::max(find(i), find(j))] = std::min(find(i), find(j));
      }
    }
  }

  // Nodes in order of first member occurrence.
  std::map<int, int> root_to_node;
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    auto [it, inserted] =
        root_to_node.emplace(root, static_cast<int>(lattice.nodes.size()));
    if (inserted) lattice.nodes.emplace_back();
    lattice.nodes[it->second].sources.push_back(universe[i]);
    lattice.node_of[universe[i]] = it->second;
  }

  // Subset edges between distinct nodes.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      RelationSet r = relation(i, j);
      if (RelationCount(r) == 1 && TheRelation(r) == SetRelation::kSubset) {
        int child = lattice.node_of[universe[i]];
        int parent_node = lattice.node_of[universe[j]];
        if (child != parent_node) {
          lattice.nodes[child].parents.insert(parent_node);
        }
      }
    }
  }

  // Derived generalizations: one per node pair connected by an established
  // overlap or a user-asserted disjoint-integrable assertion. Pre-index the
  // disjoint-integrable assertions so the pair loop does a set probe instead
  // of scanning every user assertion per pair (O(n²·|assertions|) before).
  std::set<std::pair<ObjectRef, ObjectRef>> disjoint_integrable_pairs;
  for (const Assertion& a : store.user_assertions()) {
    if (a.type != AssertionType::kDisjointIntegrable) continue;
    disjoint_integrable_pairs.insert({a.first, a.second});
    disjoint_integrable_pairs.insert({a.second, a.first});
  }
  std::set<std::pair<int, int>> derived_pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      RelationSet r = relation(i, j);
      bool overlap = RelationCount(r) == 1 &&
                     TheRelation(r) == SetRelation::kOverlap;
      bool disjoint_integrable =
          !overlap && disjoint_integrable_pairs.count(
                          {universe[i], universe[j]}) > 0;
      if (!overlap && !disjoint_integrable) continue;
      int a = lattice.node_of[universe[i]];
      int b = lattice.node_of[universe[j]];
      if (a == b) continue;
      derived_pairs.insert({std::min(a, b), std::max(a, b)});
    }
  }

  // Name base nodes before derived ones (derived names reference them).
  for (Node& node : lattice.nodes) {
    bool all_same = true;
    for (const ObjectRef& ref : node.sources) {
      all_same &= ref.object == node.sources.front().object;
    }
    if (node.sources.size() == 1) {
      node.origin = ecr::ObjectOrigin::kComponent;
      const ObjectRef& ref = node.sources.front();
      if (!used_names.count(ref.object)) {
        node.name = ref.object;
        used_names.insert(node.name);
      } else {
        node.name = UniqueName(ref.schema + "_" + ref.object, used_names);
      }
    } else {
      node.origin = ecr::ObjectOrigin::kEquivalent;
      std::string candidate;
      if (all_same) {
        candidate = "E_" + node.sources.front().object;
      } else {
        candidate = "E";
        for (const ObjectRef& ref : node.sources) {
          candidate += "_" + Fragment(ref.object, options.name_prefix_length);
        }
      }
      node.name = UniqueName(candidate, used_names);
    }
  }

  for (const auto& [a, b] : derived_pairs) {
    // Skip when one side already generalizes the other through other edges
    // (e.g. overlap later subsumed by an equals chain elsewhere).
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
    lattice.nodes[a].parents.insert(id);
    lattice.nodes[b].parents.insert(id);
  }

  // The closure guarantees consistency, so the edge set must be acyclic.
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
  return lattice;
}

// Topological order, parents before children, stable by node index.
std::vector<int> TopoOrder(const Lattice& lattice) {
  int n = static_cast<int>(lattice.nodes.size());
  std::vector<int> out;
  out.reserve(n);
  std::vector<char> done(n, 0);
  auto visit = [&](auto&& self, int node) -> void {
    if (done[node]) return;
    done[node] = 1;
    for (int parent : lattice.nodes[node].parents) self(self, parent);
    out.push_back(node);
  };
  for (int i = 0; i < n; ++i) visit(visit, i);
  return out;
}

// Direct parents after transitive reduction.
std::vector<int> DirectParents(const Lattice& lattice, int node,
                               bool reduce) {
  std::vector<int> parents(lattice.nodes[node].parents.begin(),
                           lattice.nodes[node].parents.end());
  if (!reduce) return parents;
  std::vector<int> out;
  for (int p : parents) {
    bool implied = false;
    for (int q : parents) {
      if (q == p) continue;
      // p implied when reachable from another parent q.
      if (lattice.IsAncestorOrSelf(q, p)) {
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

// Everything the placement pass needs to know about one component attribute.
struct SourceAttribute {
  ecr::AttributePath path;
  ecr::Attribute attribute;
  int node = -1;
};

// Derived-attribute name from its component names: D_<name> when all agree,
// D_<frag>_<frag>... otherwise.
std::string DerivedAttributeName(const std::vector<SourceAttribute*>& members,
                                 int fragment_length) {
  std::vector<std::string> names;
  for (const SourceAttribute* m : members) {
    if (std::find(names.begin(), names.end(), m->attribute.name) ==
        names.end()) {
      names.push_back(m->attribute.name);
    }
  }
  if (names.size() == 1) return "D_" + names.front();
  std::string out = "D";
  for (const std::string& name : names) {
    out += "_" + Fragment(name, fragment_length);
  }
  return out;
}

// Runs equivalence-class merging and attribute copying over one lattice.
// Fills node.attributes, emits DerivedAttributeInfo records and the
// per-source-attribute targets used by the mappings.
void PlaceAttributes(
    Lattice& lattice, std::vector<SourceAttribute>& attributes,
    const EquivalenceMap& equivalence, const IntegrationOptions& options,
    std::vector<DerivedAttributeInfo>& derived_out,
    std::map<ecr::AttributePath, AttributeMapping>& target_out) {
  // Group source attributes by equivalence class.
  std::map<ecr::AttributePath, SourceAttribute*> by_path;
  for (SourceAttribute& a : attributes) by_path[a.path] = &a;

  std::set<const SourceAttribute*> consumed;
  // Per-node used attribute names, to keep derived + copied names unique.
  std::vector<std::set<std::string>> used(lattice.nodes.size());

  for (const std::vector<ecr::AttributePath>& eq_class :
       equivalence.NontrivialClasses()) {
    std::vector<SourceAttribute*> members;
    for (const ecr::AttributePath& path : eq_class) {
      auto it = by_path.find(path);
      if (it != by_path.end()) members.push_back(it->second);
    }
    if (members.size() < 2) continue;  // class does not span this lattice
    std::set<int> owners;
    for (SourceAttribute* m : members) owners.insert(m->node);
    int placement = lattice.Placement(owners);
    if (placement < 0) continue;  // no common generalization; copy as-is

    ecr::Attribute merged;
    merged.name = DerivedAttributeName(members, options.name_prefix_length);
    merged.domain = members.front()->attribute.domain;
    merged.is_key = true;
    for (SourceAttribute* m : members) {
      merged.domain = MergeDomains(merged.domain, m->attribute.domain);
      merged.is_key = merged.is_key && m->attribute.is_key;
    }
    while (used[placement].count(merged.name)) merged.name += "_x";
    used[placement].insert(merged.name);
    lattice.nodes[placement].attributes.push_back(merged);

    DerivedAttributeInfo info;
    info.owner = lattice.nodes[placement].name;
    info.name = merged.name;
    for (SourceAttribute* m : members) {
      info.components.push_back(m->path);
      consumed.insert(m);
      target_out[m->path] = AttributeMapping{
          m->path.attribute, info.owner, merged.name};
    }
    derived_out.push_back(std::move(info));
  }

  // Copy every unconsumed attribute onto its node, renaming on collision.
  for (SourceAttribute& a : attributes) {
    if (consumed.count(&a)) continue;
    ecr::Attribute copy = a.attribute;
    if (used[a.node].count(copy.name)) {
      copy.name = a.path.schema + "_" + copy.name;
      while (used[a.node].count(copy.name)) copy.name += "_x";
    }
    used[a.node].insert(copy.name);
    lattice.nodes[a.node].attributes.push_back(copy);
    target_out[a.path] = AttributeMapping{
        a.path.attribute, lattice.nodes[a.node].name, copy.name};
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

Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& assertions,
    const IntegrationOptions& options) {
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

  // Universes, in schema order then declaration order.
  std::vector<ObjectRef> object_universe;
  std::vector<ObjectRef> relationship_universe;
  for (const ecr::Schema* schema : components) {
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      object_universe.push_back({schema->name(), schema->object(i).name});
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      relationship_universe.push_back(
          {schema->name(), schema->relationship(i).name});
    }
  }

  std::set<std::string> used_names;
  ECRINT_ASSIGN_OR_RETURN(
      Lattice objects,
      BuildLattice(object_universe, assertions, options, used_names));
  ECRINT_ASSIGN_OR_RETURN(
      Lattice rels,
      BuildLattice(relationship_universe, assertions, options, used_names));

  IntegrationResult result;
  result.schema.set_name(options.result_name);
  result.object_clusters = AllPairsClusters(assertions, object_universe);
  result.relationship_clusters =
      AllPairsClusters(assertions, relationship_universe);

  // --- attributes ----------------------------------------------------------
  std::map<ecr::AttributePath, AttributeMapping> attribute_targets;
  {
    std::vector<SourceAttribute> object_attributes;
    std::vector<SourceAttribute> relationship_attributes;
    for (const ecr::Schema* schema : components) {
      for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
        const ecr::ObjectClass& object = schema->object(i);
        for (const ecr::Attribute& a : object.attributes) {
          object_attributes.push_back(
              {{schema->name(), object.name, a.name},
               a,
               objects.node_of.at({schema->name(), object.name})});
        }
      }
      for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
        const ecr::RelationshipSet& rel = schema->relationship(i);
        for (const ecr::Attribute& a : rel.attributes) {
          relationship_attributes.push_back(
              {{schema->name(), rel.name, a.name},
               a,
               rels.node_of.at({schema->name(), rel.name})});
        }
      }
    }
    PlaceAttributes(objects, object_attributes, equivalence, options,
                    result.derived_attributes, attribute_targets);
    PlaceAttributes(rels, relationship_attributes, equivalence, options,
                    result.derived_attributes, attribute_targets);
  }

  // --- assemble object classes --------------------------------------------
  std::vector<int> object_order = TopoOrder(objects);
  std::vector<ecr::ObjectId> node_to_id(objects.nodes.size(),
                                        ecr::kNoObject);
  for (int node : object_order) {
    const Node& n = objects.nodes[node];
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
    for (const ecr::Attribute& a : n.attributes) {
      // Placement keeps names unique per node; an inherited clash can still
      // occur (ancestor copied an identically named attribute), so rename.
      ecr::Attribute attr = a;
      Status status = result.schema.AddObjectAttribute(*id, attr);
      while (status.code() == StatusCode::kAlreadyExists) {
        attr.name += "_x";
        status = result.schema.AddObjectAttribute(*id, attr);
      }
      if (!status.ok()) return status;
    }
  }

  // --- assemble relationship sets -----------------------------------------
  // Participants of every source relationship, against object node ids.
  auto source_participants =
      [&](const ObjectRef& ref) -> std::vector<NodeParticipation> {
    std::vector<NodeParticipation> out;
    for (const ecr::Schema* schema : components) {
      if (schema->name() != ref.schema) continue;
      ecr::RelationshipId id = schema->FindRelationship(ref.object);
      if (id < 0) continue;
      for (const ecr::Participation& p : schema->relationship(id).participants) {
        out.push_back({objects.node_of.at(
                           {schema->name(), schema->object(p.object).name}),
                       p.min_card, p.max_card, p.role});
      }
    }
    return out;
  };

  std::vector<int> rel_order = TopoOrder(rels);
  std::vector<std::vector<NodeParticipation>> rel_participants(
      rels.nodes.size());
  // Children before parents so a derived relationship can generalize its
  // children's already-merged participant lists; TopoOrder gives parents
  // first, so iterate it in reverse.
  for (auto it = rel_order.rbegin(); it != rel_order.rend(); ++it) {
    int node = *it;
    const Node& n = rels.nodes[node];
    std::vector<NodeParticipation> merged;
    for (const ObjectRef& source : n.sources) {
      merged = merged.empty()
                   ? source_participants(source)
                   : MergeParticipantLists(merged,
                                           source_participants(source),
                                           objects);
    }
    if (n.sources.empty()) {
      // Derived relationship: generalize over its children.
      for (size_t child = 0; child < rels.nodes.size(); ++child) {
        if (!rels.nodes[child].parents.count(node)) continue;
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

  // --- provenance & mappings ----------------------------------------------
  auto emit_infos = [&result](const Lattice& lattice, StructureKind kind) {
    for (const Node& node : lattice.nodes) {
      IntegratedStructureInfo info;
      info.name = node.name;
      info.kind = kind;
      info.origin = node.origin;
      info.sources = node.sources;
      result.structures.push_back(std::move(info));
    }
  };
  emit_infos(objects, StructureKind::kObjectClass);
  emit_infos(rels, StructureKind::kRelationshipSet);

  auto emit_mappings = [&](const Lattice& lattice, StructureKind kind) {
    for (const Node& node : lattice.nodes) {
      for (const ObjectRef& source : node.sources) {
        StructureMapping mapping;
        mapping.source = source;
        mapping.kind = kind;
        mapping.target = node.name;
        for (auto& [path, attr_mapping] : attribute_targets) {
          if (path.schema == source.schema && path.object == source.object) {
            mapping.attributes.push_back(attr_mapping);
          }
        }
        result.mappings.push_back(std::move(mapping));
      }
    }
  };
  emit_mappings(objects, StructureKind::kObjectClass);
  emit_mappings(rels, StructureKind::kRelationshipSet);

  return result;
}

}  // namespace ecrint::core::reference
