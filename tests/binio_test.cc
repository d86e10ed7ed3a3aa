// wrbpg-bin-v1 (core/binio.h): round-trips across every graph family,
// spec conformance against an independent encoder, the CSR decoder
// against GraphBuilder field by field, and decode hardening — every
// strict prefix rejected, every single-byte corruption rejected, hostile
// declared counts rejected before allocation, every model violation
// reported with its message.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/schedule.h"
#include "core/serialize.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/random_dag.h"
#include "schedulers/greedy_topo.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

// Independent little-endian encoder implementing the documented layout
// (binio.h / docs/FORMATS.md). Tests build streams with it and require
// ToBinary to produce the SAME bytes — so the written spec, not just the
// implementation, is what round-trips.
class SpecEncoder {
 public:
  explicit SpecEncoder(std::uint8_t kind) {
    bytes_ = "WBIN";
    bytes_.push_back('\x01');  // version
    bytes_.push_back(static_cast<char>(kind));
    bytes_.push_back('\x00');  // reserved
    bytes_.push_back('\x00');
  }

  SpecEncoder& U8(std::uint8_t v) {
    bytes_.push_back(static_cast<char>(v));
    return *this;
  }
  SpecEncoder& U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return *this;
  }
  SpecEncoder& U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return *this;
  }
  SpecEncoder& Raw(std::string_view s) {
    bytes_.append(s);
    return *this;
  }

  // Appends the FNV-1a-64 footer over everything so far.
  std::string Finish() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes_) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    std::string out = bytes_;
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
    }
    return out;
  }

 private:
  std::string bytes_;
};

Graph Diamond() {
  GraphBuilder b;
  const NodeId a = b.AddNode(16, "in");
  const NodeId l = b.AddNode(8, "left");
  const NodeId r = b.AddNode(8, "right");
  const NodeId z = b.AddNode(32, "out");
  b.AddEdge(a, l);
  b.AddEdge(a, r);
  b.AddEdge(l, z);
  b.AddEdge(r, z);
  return b.BuildOrDie();
}

// Every field a Graph exposes: weights, names, both adjacency lists of
// every node (so both CSRs), sources, sinks and the topological order.
void ExpectSameFields(const Graph& a, const Graph& b, const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  EXPECT_EQ(a.weights(), b.weights()) << what;
  EXPECT_EQ(a.total_weight(), b.total_weight()) << what;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.name(v), b.name(v)) << what << " node " << v;
    EXPECT_TRUE(std::ranges::equal(a.parents(v), b.parents(v)))
        << what << " parents of " << v;
    EXPECT_TRUE(std::ranges::equal(a.children(v), b.children(v)))
        << what << " children of " << v;
    EXPECT_TRUE(std::ranges::is_sorted(b.parents(v))) << what;
    EXPECT_TRUE(std::ranges::is_sorted(b.children(v))) << what;
  }
  EXPECT_EQ(a.sources(), b.sources()) << what;
  EXPECT_EQ(a.sinks(), b.sinks()) << what;
  EXPECT_EQ(a.topological_order(), b.topological_order()) << what;
  EXPECT_TRUE(a.SameWeightsAndEdges(b)) << what;
}

// The same graph through GraphBuilder with its edges added in a shuffled
// order: Build must sort the lists it was handed out of order.
Graph RebuildShuffled(const Graph& g, std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NodeId c : g.children(v)) edges.emplace_back(v, c);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  GraphBuilder b;
  for (NodeId v = 0; v < g.num_nodes(); ++v) b.AddNode(g.weight(v), g.name(v));
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return b.BuildOrDie();
}

std::vector<Graph> DecodeCorpus() {
  std::vector<Graph> corpus;
  for (const char* spec : {"dwt:8,2", "dwt:32,3", "kary:3,2", "kary:4,4",
                           "mvm:3,4", "mvm:6,6", "butterfly:4",
                           "butterfly:16", "random:3,4,7",
                           "random:10,12,7"}) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    EXPECT_TRUE(built.ok) << spec;
    corpus.push_back(built.graph());
  }
  Rng rng(0xdec0de);
  for (int i = 0; i < 40; ++i) {
    RandomDagOptions options;
    options.num_layers = 2 + i % 6;
    options.nodes_per_layer = 1 + i % 9;
    options.max_in_degree = 1 + i % 4;
    corpus.push_back(BuildRandomDag(rng, options));
  }
  corpus.push_back(Diamond());
  return corpus;
}

TEST(BinIo, DecodeMatchesGraphBuilderFieldByField) {
  const std::vector<Graph> corpus = DecodeCorpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Graph& g = corpus[i];
    const std::string what = "corpus[" + std::to_string(i) + "]";
    const std::string bytes = ToBinary(g);
    EXPECT_EQ(BinarySize(g), bytes.size()) << what;
    const GraphParseResult parsed = ParseGraphBinary(bytes);
    ASSERT_TRUE(parsed.ok) << what << ": " << parsed.error;
    ExpectSameFields(g, parsed.graph, what);
    ExpectSameFields(g, RebuildShuffled(g, i), what + " shuffled build");
  }
}

TEST(BinIo, ShuffledEdgeOrderDecodesToTheSameGraph) {
  const std::vector<Graph> corpus = DecodeCorpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Graph& g = corpus[i];
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const NodeId c : g.children(v)) edges.emplace_back(v, c);
    }
    std::mt19937_64 rng(0x5af + i);
    std::shuffle(edges.begin(), edges.end(), rng);
    // Hand-built stream, same nodes, edge table in shuffled order.
    SpecEncoder enc(kBinKindGraph);
    enc.U32(g.num_nodes()).U32(static_cast<std::uint32_t>(edges.size()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      enc.U64(static_cast<std::uint64_t>(g.weight(v)));
    }
    enc.U8(0);
    for (const auto& [u, v] : edges) enc.U32(u).U32(v);
    const GraphParseResult parsed = ParseGraphBinary(enc.Finish());
    ASSERT_TRUE(parsed.ok) << i << ": " << parsed.error;
    EXPECT_TRUE(parsed.graph.SameWeightsAndEdges(g)) << i;
    EXPECT_EQ(parsed.graph.topological_order(), g.topological_order()) << i;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_TRUE(std::ranges::equal(parsed.graph.children(v), g.children(v)))
          << i << " children of " << v;
    }
  }
}

TEST(BinIo, CorruptStreamsKeepTheirMessages) {
  // Two weights (16, 8) and no names: the edge table starts at offset 33.
  auto two_nodes = [](std::uint32_t edges) {
    SpecEncoder enc(kBinKindGraph);
    enc.U32(2).U32(edges).U64(16).U64(8).U8(0);
    return enc;
  };
  auto error_of = [](const std::string& bytes) {
    const GraphParseResult r = ParseGraphBinary(bytes);
    EXPECT_FALSE(r.ok);
    return r.error;
  };
  // Each edge-table error reports the offset just past the edge read.
  EXPECT_EQ(error_of(two_nodes(1).U32(0).U32(7).Finish()),
            "offset 41: edge (0,7) references an undeclared node");
  EXPECT_EQ(error_of(two_nodes(1).U32(1).U32(1).Finish()),
            "offset 41: self-loop on node 1");
  EXPECT_EQ(error_of(two_nodes(1).U32(0).U32(1).U8(0).Finish()),
            "offset 41: 1 trailing payload bytes after the edge table");
  EXPECT_EQ(error_of(two_nodes(2).U32(0).U32(1).U32(0).U32(1).Finish()),
            "duplicate edge (0,1)");
  // Duplicates in two lists: the smallest child's twin is the one named,
  // in a grouped stream and in a shuffled one alike.
  SpecEncoder dups(kBinKindGraph);
  dups.U32(4).U32(5).U64(1).U64(1).U64(1).U64(1).U8(0);
  dups.U32(1).U32(3).U32(0).U32(2).U32(1).U32(3).U32(0).U32(2).U32(2).U32(3);
  EXPECT_EQ(error_of(dups.Finish()), "duplicate edge (0,2)");

  SpecEncoder cycle(kBinKindGraph);
  cycle.U32(3).U32(3).U64(16).U64(8).U64(8).U8(0);
  cycle.U32(0).U32(1).U32(1).U32(2).U32(2).U32(0);
  EXPECT_EQ(error_of(cycle.Finish()), "graph contains a cycle");

  SpecEncoder isolated(kBinKindGraph);
  isolated.U32(3).U32(1).U64(16).U64(8).U64(4).U8(0).U32(0).U32(1);
  EXPECT_EQ(error_of(isolated.Finish()),
            "node 2 is both source and sink (isolated); the WRBPG assumes "
            "A(G) and Z(G) are disjoint");
}

TEST(BinIo, RoundTripsEveryBuiltinFamily) {
  const std::vector<std::string> specs = {"dwt:8,2",    "kary:3,2",
                                          "mvm:3,4",    "butterfly:4",
                                          "random:3,4,7"};
  for (const std::string& spec : specs) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    ASSERT_TRUE(built.ok) << spec;
    const std::string bytes = ToBinary(built.graph());
    EXPECT_TRUE(LooksLikeBinary(bytes));
    const GraphParseResult parsed = ParseGraphBinary(bytes);
    ASSERT_TRUE(parsed.ok) << spec << ": " << parsed.error;
    ExpectSameFields(built.graph(), parsed.graph, spec);
    // Canonical: re-encoding the decoded graph reproduces the bytes.
    EXPECT_EQ(ToBinary(parsed.graph), bytes) << spec;
  }
}

TEST(BinIo, RoundTripsNamedNodes) {
  const Graph g = Diamond();
  const GraphParseResult parsed = ParseGraphBinary(ToBinary(g));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExpectSameFields(g, parsed.graph, "diamond");
  EXPECT_EQ(parsed.graph.name(0), "in");
  EXPECT_EQ(parsed.graph.name(3), "out");
}

TEST(BinIo, RoundTripsSchedules) {
  const Graph g = Diamond();
  const ScheduleResult result = GreedyTopoScheduler(g).Run(64);
  ASSERT_TRUE(result.feasible);
  ASSERT_FALSE(result.schedule.empty());
  const std::string bytes = ToBinary(result.schedule);
  EXPECT_TRUE(LooksLikeBinary(bytes));
  const ScheduleParseResult parsed = ParseScheduleBinary(bytes);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.schedule, result.schedule);
  EXPECT_EQ(ToBinary(parsed.schedule), bytes);
}

TEST(BinIo, MatchesTheWrittenSpec) {
  // Hand-encode the 2-node chain {a(16) -> b(8)} per the documented
  // layout and require both byte-equality with ToBinary and a clean
  // decode. If this fails, either the implementation or FORMATS.md is
  // wrong — fix the drift, whichever side it is on.
  GraphBuilder b;
  const NodeId u = b.AddNode(16);
  const NodeId v = b.AddNode(8);
  b.AddEdge(u, v);
  const Graph g = b.BuildOrDie();

  SpecEncoder enc(kBinKindGraph);
  enc.U32(2).U32(1);       // num_nodes, num_edges
  enc.U64(16).U64(8);      // weights
  enc.U8(0);               // names_present
  enc.U32(0).U32(1);       // edge (0, 1)
  const std::string spec_bytes = enc.Finish();
  EXPECT_EQ(ToBinary(g), spec_bytes);
  EXPECT_TRUE(ParseGraphBinary(spec_bytes).ok);
}

TEST(BinIo, RejectsEveryStrictPrefix) {
  const std::string graph_bytes = ToBinary(Diamond());
  for (std::size_t len = 0; len < graph_bytes.size(); ++len) {
    const GraphParseResult parsed =
        ParseGraphBinary(std::string_view(graph_bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok) << "prefix of length " << len << " accepted";
    EXPECT_FALSE(parsed.error.empty()) << len;
  }
  const ScheduleResult sched = GreedyTopoScheduler(Diamond()).Run(64);
  ASSERT_TRUE(sched.feasible);
  const std::string sched_bytes = ToBinary(sched.schedule);
  for (std::size_t len = 0; len < sched_bytes.size(); ++len) {
    EXPECT_FALSE(
        ParseScheduleBinary(std::string_view(sched_bytes).substr(0, len)).ok)
        << "prefix of length " << len << " accepted";
  }
}

TEST(BinIo, RejectsEverySingleByteCorruption) {
  // The FNV-1a-64 footer must catch ANY single-byte change anywhere in
  // the stream (including in the footer itself). Exhaustive over
  // positions, seeded-random over replacement values.
  const std::string bytes = ToBinary(Diamond());
  std::mt19937_64 rng(0x5eed);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    const auto original = static_cast<std::uint8_t>(corrupt[pos]);
    std::uint8_t replacement = original;
    while (replacement == original) {
      replacement = static_cast<std::uint8_t>(rng());
    }
    corrupt[pos] = static_cast<char>(replacement);
    const GraphParseResult parsed = ParseGraphBinary(corrupt);
    EXPECT_FALSE(parsed.ok) << "byte " << pos << " flip accepted";
  }
}

TEST(BinIo, RejectsTrailingBytes) {
  std::string bytes = ToBinary(Diamond());
  bytes.push_back('\x00');
  EXPECT_FALSE(ParseGraphBinary(bytes).ok);
}

TEST(BinIo, RejectsWrongEnvelope) {
  const std::string good = ToBinary(Diamond());
  // Graph decoder fed a schedule stream (and vice versa): wrong kind.
  const ScheduleResult sched = GreedyTopoScheduler(Diamond()).Run(64);
  ASSERT_TRUE(sched.feasible);
  const std::string sched_bytes = ToBinary(sched.schedule);
  GraphParseResult as_graph = ParseGraphBinary(sched_bytes);
  EXPECT_FALSE(as_graph.ok);
  EXPECT_NE(as_graph.error.find("kind"), std::string::npos);
  EXPECT_FALSE(ParseScheduleBinary(good).ok);
  // Text input is not binary.
  EXPECT_FALSE(LooksLikeBinary(ToText(Diamond())));
  EXPECT_FALSE(ParseGraphBinary(ToText(Diamond())).ok);
}

TEST(BinIo, RejectsHostileDeclaredCounts) {
  // A tiny stream claiming 2^31 nodes must be rejected by the
  // count-vs-remaining-bytes guard, not by an allocation attempt.
  SpecEncoder nodes(kBinKindGraph);
  nodes.U32(0x7fffffffu).U32(0);
  GraphParseResult r = ParseGraphBinary(nodes.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds the remaining payload"), std::string::npos);

  SpecEncoder edges(kBinKindGraph);
  edges.U32(1).U32(0x7fffffffu).U64(16).U8(0);
  r = ParseGraphBinary(edges.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds the remaining payload"), std::string::npos);

  SpecEncoder moves(kBinKindSchedule);
  moves.U32(0xffffffffu);
  EXPECT_FALSE(ParseScheduleBinary(moves.Finish()).ok);
}

TEST(BinIo, RejectsModelViolations) {
  // Zero weight.
  SpecEncoder zero_w(kBinKindGraph);
  zero_w.U32(1).U32(0).U64(0).U8(0);
  GraphParseResult r = ParseGraphBinary(zero_w.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("non-positive weight"), std::string::npos);

  // Edge referencing an undeclared node.
  SpecEncoder bad_edge(kBinKindGraph);
  bad_edge.U32(2).U32(1).U64(16).U64(8).U8(0).U32(0).U32(7);
  r = ParseGraphBinary(bad_edge.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared node"), std::string::npos);

  // Self-loop.
  SpecEncoder self_loop(kBinKindGraph);
  self_loop.U32(2).U32(1).U64(16).U64(8).U8(0).U32(1).U32(1);
  r = ParseGraphBinary(self_loop.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("self-loop"), std::string::npos);

  // Duplicate edge.
  SpecEncoder dup(kBinKindGraph);
  dup.U32(2).U32(2).U64(16).U64(8).U8(0).U32(0).U32(1).U32(0).U32(1);
  r = ParseGraphBinary(dup.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos);

  // Cycle (caught by GraphBuilder validation, same as the text parser).
  SpecEncoder cycle(kBinKindGraph);
  cycle.U32(3).U32(3).U64(16).U64(8).U64(8).U8(0);
  cycle.U32(0).U32(1).U32(1).U32(2).U32(2).U32(0);
  EXPECT_FALSE(ParseGraphBinary(cycle.Finish()).ok);

  // Invalid move type.
  SpecEncoder bad_move(kBinKindSchedule);
  bad_move.U32(1).U8(9).U32(0);
  const ScheduleParseResult s = ParseScheduleBinary(bad_move.Finish());
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("invalid type"), std::string::npos);
}

// A duplicate edge whose twin is not adjacent in the edge table — (0,2),
// (1,2), (0,2) — is rejected too. Decoding leaves the check to
// GraphBuilder validation, which runs it once on the sorted parent lists.
TEST(BinIo, RejectsNonAdjacentDuplicateEdge) {
  SpecEncoder dup(kBinKindGraph);
  dup.U32(3).U32(3).U64(16).U64(8).U64(8).U8(0);
  dup.U32(0).U32(2).U32(1).U32(2).U32(0).U32(2);
  const GraphParseResult r = ParseGraphBinary(dup.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge (0,2)"), std::string::npos)
      << r.error;
}

TEST(BinIo, RejectsBadVersionAndReserved) {
  std::string bytes = ToBinary(Diamond());
  {
    std::string v2 = bytes;
    v2[4] = '\x02';
    const GraphParseResult r = ParseGraphBinary(v2);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("version"), std::string::npos);
  }
  {
    std::string reserved = bytes;
    reserved[6] = '\x01';
    EXPECT_FALSE(ParseGraphBinary(reserved).ok);
  }
  {
    std::string magic = bytes;
    magic[0] = 'X';
    const GraphParseResult r = ParseGraphBinary(magic);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos);
  }
}

}  // namespace
}  // namespace wrbpg
