// Mutable builder producing validated, immutable Graphs.
//
// Build() enforces the WRBPG model preconditions from Sec 2.1: positive
// weights, no self-loops, no duplicate edges, acyclicity, and (optionally)
// A(G) ∩ Z(G) = ∅ — the paper assumes sources and sinks are disjoint, but
// single-node graphs are useful in tests, so the check can be relaxed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

class GraphBuilder {
 public:
  // Adds a node with the given weight (> 0) and optional debug name.
  NodeId AddNode(Weight weight, std::string name = {});

  // Adds a directed edge u -> v. Both endpoints must already exist.
  void AddEdge(NodeId u, NodeId v);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(weights_.size());
  }

  struct BuildOptions {
    // Enforce the paper's A(G) ∩ Z(G) = ∅ assumption.
    bool require_disjoint_sources_sinks = true;
  };

  struct BuildResult {
    Graph graph;
    bool ok = false;
    std::string error;  // set when !ok
  };

  // Validates and produces the Graph. The builder may be reused afterwards.
  BuildResult Build(const BuildOptions& options) const;
  BuildResult Build() const { return Build(BuildOptions{}); }

  // Convenience for constructions that are correct by design (dataflow
  // generators, tests): aborts with the validation message on failure.
  Graph BuildOrDie(const BuildOptions& options) const;
  Graph BuildOrDie() { return BuildOrDie(BuildOptions{}); }

  // The second half of Build, for callers that already hold the edges
  // grouped by parent (the wrbpg-bin-v1 decoder): the children of u are
  // child_data[child_offsets[u] .. child_offsets[u + 1]), in any order.
  // The caller has done Build's first checks — every weight positive,
  // every child id in range, no self-loop. This runs the rest with
  // Build's messages (duplicate edge, isolated node, cycle). Child lists
  // that are already strictly ascending, as ToBinary writes them, are
  // kept as given; any other order is rebuilt sorted.
  static BuildResult BuildFromChildLists(std::vector<Weight> weights,
                                         std::vector<std::string> names,
                                         std::vector<std::size_t> child_offsets,
                                         std::vector<NodeId> child_data,
                                         const BuildOptions& options);

 private:
  std::vector<Weight> weights_;
  std::vector<std::string> names_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace wrbpg
