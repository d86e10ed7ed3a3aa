#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/graph.h"
#include "core/graph_builder.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

TEST(GraphBuilder, BuildsDiamond) {
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.weight(0), 3);
  EXPECT_EQ(g.weight(4), 13);
  EXPECT_EQ(g.total_weight(), 3 + 5 + 7 + 11 + 13);
}

TEST(GraphBuilder, AdjacencyMatchesEdges) {
  const Graph g = MakeDiamond();
  EXPECT_TRUE(g.parents(0).empty());
  ASSERT_EQ(g.parents(2).size(), 2u);
  EXPECT_EQ(g.parents(2)[0], 0u);
  EXPECT_EQ(g.parents(2)[1], 1u);
  ASSERT_EQ(g.parents(3).size(), 1u);
  EXPECT_EQ(g.parents(3)[0], 1u);
  ASSERT_EQ(g.children(1).size(), 2u);
  EXPECT_EQ(g.children(1)[0], 2u);
  EXPECT_EQ(g.children(1)[1], 3u);
  EXPECT_TRUE(g.children(4).empty());
}

TEST(GraphBuilder, SourcesAndSinks) {
  const Graph g = MakeDiamond();
  EXPECT_EQ(g.sources(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(g.sinks(), (std::vector<NodeId>{4}));
  EXPECT_TRUE(g.is_source(0));
  EXPECT_FALSE(g.is_source(2));
  EXPECT_TRUE(g.is_sink(4));
  EXPECT_FALSE(g.is_sink(1));
}

TEST(GraphBuilder, TopologicalOrderRespectsEdges) {
  const Graph g = MakeDiamond();
  const auto& topo = g.topological_order();
  ASSERT_EQ(topo.size(), 5u);
  std::vector<std::size_t> pos(5);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId c : g.children(v)) EXPECT_LT(pos[v], pos[c]);
  }
}

TEST(GraphBuilder, RejectsNonPositiveWeight) {
  GraphBuilder b;
  b.AddNode(0);
  b.AddNode(1);
  b.AddEdge(0, 1);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("non-positive weight"), std::string::npos);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("self-loop"), std::string::npos);
}

TEST(GraphBuilder, RejectsDuplicateEdge) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos);
}

// The twin of a duplicate need not follow it in the edge list: the check
// runs on the sorted parent lists, so (0,2), (1,2), (0,2) is caught too.
TEST(GraphBuilder, RejectsNonAdjacentDuplicateEdge) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge (0,2)"), std::string::npos)
      << r.error;
}

TEST(GraphBuilder, RejectsOutOfRangeEdge) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddEdge(0, 5);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos);
}

TEST(GraphBuilder, RejectsCycle) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cycle"), std::string::npos);
}

TEST(GraphBuilder, RejectsIsolatedNodeByDefault) {
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 1);
  const auto r = b.Build();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("both source and sink"), std::string::npos);
}

TEST(GraphBuilder, IsolatedNodeAllowedWhenRelaxed) {
  GraphBuilder b;
  b.AddNode(1);
  const auto r = b.Build({.require_disjoint_sources_sinks = false});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.graph.num_nodes(), 1u);
}

TEST(GraphBuilder, NamesArePreserved) {
  GraphBuilder b;
  b.AddNode(1, "alpha");
  b.AddNode(2);
  b.AddEdge(0, 1);
  const Graph g = b.BuildOrDie();
  EXPECT_EQ(g.name(0), "alpha");
  EXPECT_EQ(g.name(1), "");
}

TEST(GraphBuilder, NeighborsAreSorted) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddNode(1);
  // Insert parents of node 3 out of order.
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  const Graph g = b.BuildOrDie();
  ASSERT_EQ(g.parents(3).size(), 3u);
  EXPECT_TRUE(std::is_sorted(g.parents(3).begin(), g.parents(3).end()));
}

TEST(Graph, ChainStructure) {
  const Graph g = MakeChain(6, 4);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<NodeId>{5}));
  for (NodeId v = 1; v < 6; ++v) {
    ASSERT_EQ(g.in_degree(v), 1u);
    EXPECT_EQ(g.parents(v)[0], v - 1);
  }
  EXPECT_EQ(g.total_weight(), 24);
}

TEST(Graph, EmptyGraphDefaults) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.total_weight(), 0);
}

}  // namespace
}  // namespace wrbpg
