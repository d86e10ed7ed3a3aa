// Tests for the static graph analyzer (ganalysis/): canonical hashing,
// verified orbits, family recognition, and the AnalyzeGraph front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/graph_builder.h"
#include "core/serialize.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/canonical.h"
#include "ganalysis/ganalysis.h"
#include "ganalysis/recognition.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

// Rebuilds `graph` with node ids permuted by `perm` (old id -> new id).
Graph Permute(const Graph& graph, const std::vector<NodeId>& perm) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> inverse(n);
  for (NodeId v = 0; v < n; ++v) inverse[perm[v]] = v;
  GraphBuilder b;
  for (NodeId v = 0; v < n; ++v) b.AddNode(graph.weight(inverse[v]));
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : graph.children(v)) {
      b.AddEdge(perm[v], perm[c]);
    }
  }
  return b.BuildOrDie();
}

std::vector<NodeId> RandomPermutation(NodeId n, std::uint32_t seed) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  std::mt19937 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

TEST(Canonical, HashIsInvariantUnderRandomPermutation) {
  const std::vector<Graph> corpus = {
      testing::MakeDiamond({3, 5, 7, 11, 13}),
      testing::MakeChain(9),
      BuildPerfectTree(2, 4).graph,
      BuildDwt(8, 2).graph,
  };
  for (const Graph& g : corpus) {
    const GraphHash original = HashGraph(g);
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      const Graph shuffled =
          Permute(g, RandomPermutation(g.num_nodes(), seed));
      EXPECT_EQ(HashGraph(shuffled), original) << "seed " << seed;
      EXPECT_EQ(RefineColors(shuffled).num_colors,
                RefineColors(g).num_colors);
    }
  }
}

TEST(Canonical, HashSeparatesStructurallyDifferentGraphs) {
  // Same node count and weight multiset, different wiring.
  const Graph chain = testing::MakeChain(7);
  GraphBuilder b;
  for (int i = 0; i < 7; ++i) b.AddNode(1);
  for (NodeId v = 0; v + 1 < 7; ++v) b.AddEdge(0, v + 1);  // star
  const Graph star = b.BuildOrDie();
  EXPECT_NE(HashGraph(chain), HashGraph(star));
  EXPECT_NE(HashGraph(BuildDwt(16, 2).graph),
            HashGraph(BuildPerfectTree(2, 4).graph));
}

TEST(Canonical, OrbitsAreVerifiedAutomorphismClasses) {
  // Perfect binary tree: every level is one orbit (all verified).
  const Graph tree = BuildPerfectTree(2, 4).graph;
  const OrbitPartition orbits = ComputeOrbits(tree);
  EXPECT_EQ(orbits.num_orbits, 5u);  // one per level, 31 nodes
  // Every orbit member must map to its representative under an explicit
  // automorphism, so equal weight/in/out degree is necessary.
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const NodeId rep = orbits.orbit_of[v];
    EXPECT_LE(rep, v);
    EXPECT_EQ(tree.weight(v), tree.weight(rep));
    EXPECT_EQ(tree.parents(v).size(), tree.parents(rep).size());
    EXPECT_EQ(tree.children(v).size(), tree.children(rep).size());
  }
}

TEST(Canonical, AsymmetricGraphHasSingletonOrbits) {
  // The diamond's sources differ in out-degree; the chain is rigid.
  const Graph diamond = testing::MakeDiamond();
  const OrbitPartition d = ComputeOrbits(diamond);
  EXPECT_FALSE(d.SameOrbit(0, 1));
  const Graph chain = testing::MakeChain(6);
  EXPECT_EQ(ComputeOrbits(chain).num_orbits, chain.num_nodes());
}

TEST(Canonical, FindIsomorphismRoundTripsThroughPermutation) {
  const Graph g = BuildDwt(8, 2).graph;
  const Graph h = Permute(g, RandomPermutation(g.num_nodes(), 0xfeedu));
  const auto map = FindIsomorphism(g, h);
  ASSERT_TRUE(map.has_value());
  EXPECT_TRUE(IsIsomorphismMap(g, h, *map));
  // And a non-isomorphic pair of equal size is rejected.
  EXPECT_FALSE(
      FindIsomorphism(testing::MakeChain(5), testing::MakeDiamond())
          .has_value());
}

// Reference 1-WL: signature-rank passes (own color, sorted parent colors,
// sorted child colors) from the (weight, in-degree, out-degree) seed until
// the class count stops growing. The oracle the partition refinement must
// agree with as a partition.
std::vector<std::uint32_t> ReferenceWl(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  using Signature = std::vector<std::uint64_t>;
  std::vector<std::uint32_t> colors(n, 0);
  auto rank = [&](const std::vector<Signature>& sigs) {
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return sigs[a] < sigs[b]; });
    std::uint32_t classes = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || sigs[order[i]] != sigs[order[i - 1]]) ++classes;
      colors[order[i]] = classes - 1;
    }
    return classes;
  };
  std::vector<Signature> sigs(n);
  for (NodeId v = 0; v < n; ++v) {
    sigs[v] = {static_cast<std::uint64_t>(graph.weight(v)),
               graph.in_degree(v), graph.out_degree(v)};
  }
  std::uint32_t classes = rank(sigs);
  while (true) {
    for (NodeId v = 0; v < n; ++v) {
      Signature sig{colors[v], graph.in_degree(v)};
      for (const NodeId p : graph.parents(v)) sig.push_back(colors[p]);
      std::sort(sig.begin() + 2, sig.end());
      const std::size_t children_begin = sig.size() + 1;
      sig.push_back(graph.out_degree(v));
      for (const NodeId c : graph.children(v)) sig.push_back(colors[c]);
      std::sort(sig.begin() + static_cast<std::ptrdiff_t>(children_begin),
                sig.end());
      sigs[v] = std::move(sig);
    }
    const std::uint32_t next = rank(sigs);
    if (next == classes) return colors;
    classes = next;
  }
}

// True when the two colorings induce the same partition of the vertices.
bool SamePartition(const std::vector<std::uint32_t>& x,
                   const std::vector<std::uint32_t>& y) {
  if (x.size() != y.size()) return false;
  std::vector<std::uint32_t> x_to_y(x.size(), kInvalidNode);
  std::vector<std::uint32_t> y_to_x(y.size(), kInvalidNode);
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (x_to_y[x[v]] == kInvalidNode) x_to_y[x[v]] = y[v];
    if (y_to_x[y[v]] == kInvalidNode) y_to_x[y[v]] = x[v];
    if (x_to_y[x[v]] != y[v] || y_to_x[y[v]] != x[v]) return false;
  }
  return true;
}

// Every family the serve-hot benchmark pool draws from.
const std::vector<std::string>& ServedSpecs() {
  static const std::vector<std::string> specs = {
      "dwt:16,2",  "mvm:4,4",       "kary:2,5", "butterfly:8",
      "dwt:32,3",  "random:6,8,3",  "kary:3,4", "butterfly:16",
      "dwt:64,4",  "random:8,10,5", "kary:2,7", "mvm:6,6",
      "dwt:128,2", "butterfly:32",  "kary:4,4", "random:10,12,7",
  };
  return specs;
}

Graph Builtin(const std::string& spec) {
  const BuiltinGraph built = BuildBuiltinGraph(spec);
  EXPECT_TRUE(built.ok) << spec << ": " << built.error;
  return built.graph();
}

TEST(Canonical, RefinementMatchesReferenceWl) {
  std::vector<Graph> corpus = {
      testing::MakeDiamond({3, 5, 7, 11, 13}),
      testing::MakeDiamond(),
      testing::MakeChain(9),
      BuildPerfectTree(2, 4).graph,
      BuildDwt(8, 2).graph,
      BuildDwt(16, 2).graph,
  };
  for (const std::string& spec : ServedSpecs()) corpus.push_back(Builtin(spec));
  Rng rng(0xc0105u);
  for (int i = 0; i < 200; ++i) {
    // Wide, sparse layers with mostly uniform weights leave large cells
    // that split several times before they are used as splitters — the
    // case where queueing the wrong pieces loses a split.
    RandomDagOptions options;
    options.num_layers = 2 + i % 4;
    options.nodes_per_layer = 4 + i % 13;
    options.max_in_degree = 1 + (i / 2) % 3;
    options.max_weight = i % 4 == 3 ? 3 : 1;
    corpus.push_back(BuildRandomDag(rng, options));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Graph& g = corpus[i];
    const ColorRefinement r = RefineColors(g);
    const std::vector<std::uint32_t> reference = ReferenceWl(g);
    EXPECT_TRUE(SamePartition(r.colors, reference)) << "graph " << i;
    EXPECT_EQ(r.num_colors,
              *std::max_element(reference.begin(), reference.end()) + 1)
        << "graph " << i;
  }
}

TEST(Canonical, FindIsomorphismOnEveryServedFamily) {
  std::vector<Graph> corpus;
  for (const std::string& spec : ServedSpecs()) corpus.push_back(Builtin(spec));
  corpus.push_back(testing::MakeChain(12));
  for (const Graph& g : corpus) {
    const GraphHash hash = HashGraph(g);
    const ColorRefinement colors = RefineColors(g);
    const std::vector<std::uint32_t> labels = DeterministicLabeling(g);
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      const std::vector<NodeId> perm = RandomPermutation(g.num_nodes(), seed);
      const Graph h = Permute(g, perm);
      EXPECT_EQ(HashGraph(h), hash) << "seed " << seed;
      // Cell order reads only invariants, so colors move with the nodes.
      const ColorRefinement h_colors = RefineColors(h);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(h_colors.colors[perm[v]], colors.colors[v]);
      }
      const auto map = FindIsomorphism(g, h);
      ASSERT_TRUE(map.has_value()) << "seed " << seed;
      EXPECT_TRUE(IsIsomorphismMap(g, h, *map));
      const auto cached = FindIsomorphism(g, labels, h);
      ASSERT_TRUE(cached.has_value()) << "seed " << seed;
      EXPECT_TRUE(IsIsomorphismMap(g, h, *cached));
      EXPECT_EQ(*cached, *map);
    }
  }
}

// The service refines a first-sight request once and reads both its iso
// key and its labeling off that refinement; both must be bit-identical to
// the standalone entry points.
TEST(Canonical, HashAndLabelingFromOneRefinementAreBitIdentical) {
  std::vector<Graph> corpus;
  for (const std::string& spec : ServedSpecs()) corpus.push_back(Builtin(spec));
  corpus.push_back(testing::MakeChain(12));
  corpus.push_back(testing::MakeDiamond({3, 5, 7, 11, 13}));
  Rng rng(0x0e1abe1u);
  for (int i = 0; i < 60; ++i) {
    RandomDagOptions options;
    options.num_layers = 2 + i % 5;
    options.nodes_per_layer = 3 + i % 11;
    options.max_in_degree = 1 + i % 3;
    options.max_weight = i % 3 == 0 ? 1 : 8;
    corpus.push_back(BuildRandomDag(rng, options));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::uint32_t seed = 0; seed <= 2; ++seed) {
      const Graph g = seed == 0 ? corpus[i]
                                : Permute(corpus[i],
                                          RandomPermutation(
                                              corpus[i].num_nodes(), seed));
      const ColorRefinement refinement = RefineColors(g);
      EXPECT_EQ(HashGraph(g, refinement), HashGraph(g))
          << "graph " << i << " seed " << seed;
      const std::vector<std::uint32_t> labels =
          DeterministicLabeling(g, refinement);
      EXPECT_EQ(labels, DeterministicLabeling(g))
          << "graph " << i << " seed " << seed;
      if (seed > 0) {
        const auto map = FindIsomorphism(corpus[i], g);
        const auto both = FindIsomorphism(
            corpus[i], DeterministicLabeling(corpus[i]), g, labels);
        ASSERT_EQ(map.has_value(), both.has_value()) << "graph " << i;
        if (map) {
          EXPECT_EQ(*map, *both) << "graph " << i;
        }
      }
    }
  }
}

TEST(Canonical, IsIsomorphismMapRejectsBrokenMaps) {
  const Graph g = BuildPerfectTree(2, 3).graph;
  std::vector<NodeId> identity(g.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  EXPECT_TRUE(IsIsomorphismMap(g, g, identity));
  std::vector<NodeId> repeated = identity;
  repeated[1] = repeated[0];  // not a bijection
  EXPECT_FALSE(IsIsomorphismMap(g, g, repeated));
  std::vector<NodeId> out_of_range = identity;
  out_of_range[0] = g.num_nodes();
  EXPECT_FALSE(IsIsomorphismMap(g, g, out_of_range));
  // Swapping a leaf with an internal node breaks the parent sets.
  std::vector<NodeId> swapped = identity;
  const NodeId leaf = g.sources().front();
  const NodeId root = g.sinks().front();
  std::swap(swapped[leaf], swapped[root]);
  EXPECT_FALSE(IsIsomorphismMap(g, g, swapped));
  // Swapping two internal nodes of one level but not their subtrees keeps
  // every weight and degree and breaks the parent sets.
  std::vector<NodeId> cousins = identity;
  const NodeId x = g.children(g.sources().front()).front();
  const NodeId y = g.children(g.sources().back()).front();
  ASSERT_NE(x, y);
  std::swap(cousins[x], cousins[y]);
  EXPECT_FALSE(IsIsomorphismMap(g, g, cousins));
  // Swapping two sibling leaves is an automorphism.
  std::vector<NodeId> siblings = identity;
  const NodeId parent = g.children(leaf).front();
  const auto pair = g.parents(parent);
  ASSERT_EQ(pair.size(), 2u);
  std::swap(siblings[pair[0]], siblings[pair[1]]);
  EXPECT_TRUE(IsIsomorphismMap(g, g, siblings));
}

TEST(Canonical, DeterministicLabelingIgnoresOutOfRangeFirstVertex) {
  const Graph g = BuildDwt(8, 2).graph;
  const std::vector<std::uint32_t> plain = DeterministicLabeling(g);
  EXPECT_EQ(DeterministicLabeling(g, g.num_nodes()), plain);
  EXPECT_EQ(DeterministicLabeling(g, kInvalidNode), plain);
  std::vector<std::uint32_t> sorted = plain;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(sorted[v], v);
  // A valid first vertex is honored: labelings that individualize two
  // sources first align to an automorphism mapping one to the other.
  const NodeId u = g.sources().front();
  const NodeId v = g.sources().back();
  const std::vector<std::uint32_t> lu = DeterministicLabeling(g, u);
  const std::vector<std::uint32_t> lv = DeterministicLabeling(g, v);
  std::vector<NodeId> by_label(g.num_nodes());
  for (NodeId x = 0; x < g.num_nodes(); ++x) by_label[lv[x]] = x;
  std::vector<NodeId> map(g.num_nodes());
  for (NodeId x = 0; x < g.num_nodes(); ++x) map[x] = by_label[lu[x]];
  EXPECT_EQ(map[u], v);
  EXPECT_TRUE(IsIsomorphismMap(g, g, map));
}

TEST(Recognition, IdentifiesChainKaryAndSerializedDwt) {
  const RecognitionResult chain = RecognizeFamily(testing::MakeChain(9));
  EXPECT_EQ(chain.family, GraphFamily::kChain);
  EXPECT_EQ(chain.label, "chain:9");

  const RecognitionResult kary =
      RecognizeFamily(BuildPerfectTree(2, 4).graph);
  EXPECT_EQ(kary.family, GraphFamily::kKaryTree);
  EXPECT_EQ(kary.label, "kary:2,4");
  EXPECT_EQ(kary.param0, 2);
  EXPECT_EQ(kary.param1, 4);

  // Serialization round trip: the parsed graph carries no DwtGraph
  // wrapper, recognition must rediscover (n, d) and verify the mapping.
  const DwtGraph dwt = BuildDwt(16, 2);
  const GraphParseResult parsed = ParseGraphText(ToText(dwt.graph));
  ASSERT_TRUE(parsed.ok);
  const RecognitionResult rec = RecognizeFamily(parsed.graph);
  EXPECT_EQ(rec.family, GraphFamily::kDwt);
  EXPECT_EQ(rec.label, "dwt:16,2");
  EXPECT_EQ(rec.param0, 16);
  EXPECT_EQ(rec.param1, 2);
  ASSERT_EQ(rec.to_reference.size(), parsed.graph.num_nodes());
  const DwtGraph reference =
      BuildDwt(rec.param0, static_cast<int>(rec.param1), rec.config);
  EXPECT_TRUE(
      IsIsomorphismMap(parsed.graph, reference.graph, rec.to_reference));
}

TEST(Recognition, IsConservativeOnNonFamilyGraphs) {
  EXPECT_FALSE(RecognizeFamily(testing::MakeDiamond()).recognized());
  EXPECT_FALSE(RecognizeFamily(BuildDwt(8, 2).graph).family ==
               GraphFamily::kKaryTree);
}

TEST(Analyzer, RegistryHasStableIds) {
  EXPECT_GE(AllAnalysisPasses().size(), 6u);
  EXPECT_NE(FindAnalysisPass("bound-certificates"), nullptr);
  EXPECT_NE(FindAnalysisPass("canonical-hash"), nullptr);
  EXPECT_NE(FindAnalysisPass("graph-irrelevant-node"), nullptr);
  EXPECT_EQ(FindAnalysisPass("no-such-pass"), nullptr);
}

TEST(Analyzer, AnalyzeGraphTiesTheLayersTogether) {
  const Graph g = BuildDwt(16, 2).graph;
  AnalysisOptions options;
  options.budget = 48;
  const GraphAnalysis analysis = AnalyzeGraph(g, options);
  EXPECT_EQ(analysis.budget, 48);
  EXPECT_EQ(analysis.hash, HashGraph(g));
  EXPECT_EQ(analysis.recognition.label, "dwt:16,2");
  ASSERT_EQ(analysis.certificates.size(), 3u);
  ASSERT_EQ(analysis.checks.size(), 3u);
  for (const CertificateCheck& check : analysis.checks) {
    EXPECT_TRUE(check.ok) << check.error;
  }
  EXPECT_EQ(analysis.best_bound, 640);  // strictly above ALB 512
  EXPECT_GT(analysis.best_bound, AlgorithmicLowerBound(g));
}

TEST(Analyzer, BudgetDefaultsToMinValidBudget) {
  const Graph g = testing::MakeDiamond();
  const GraphAnalysis analysis = AnalyzeGraph(g);
  EXPECT_EQ(analysis.budget, MinValidBudget(g));
}

TEST(Analyzer, JsonAndTextRenderings) {
  const GraphAnalysis analysis = AnalyzeGraph(BuildPerfectTree(2, 3).graph);
  const std::string json = GraphAnalysisToJson(analysis);
  EXPECT_NE(json.find("\"wrbpg-ganalysis-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"certificates\""), std::string::npos);
  EXPECT_NE(json.find("\"recognition\""), std::string::npos);
  const std::string text = RenderGraphAnalysis(analysis);
  EXPECT_NE(text.find("best bound"), std::string::npos);
}

TEST(Analyzer, StructureRulesMatchLintSemantics) {
  // A node feeding nothing relevant: 0 -> 1 (sink), 2 isolated. The
  // builder's disjointness gate is relaxed, as in the lint tests.
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 1);
  const Graph g =
      b.BuildOrDie({.require_disjoint_sources_sinks = false});
  const std::vector<GraphFact> facts = RunStructureRules(g);
  ASSERT_FALSE(facts.empty());
  bool isolated = false;
  for (const GraphFact& fact : facts) {
    if (fact.pass_id == "graph-isolated-node" && fact.node == 2) {
      isolated = true;
    }
  }
  EXPECT_TRUE(isolated);
}

}  // namespace
}  // namespace wrbpg
