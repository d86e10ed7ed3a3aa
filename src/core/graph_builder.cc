#include "core/graph_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace wrbpg {

NodeId GraphBuilder::AddNode(Weight weight, std::string name) {
  weights_.push_back(weight);
  names_.push_back(std::move(name));
  return static_cast<NodeId>(weights_.size() - 1);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) { edges_.emplace_back(u, v); }

GraphBuilder::BuildResult GraphBuilder::Build(
    const BuildOptions& options) const {
  BuildResult result;
  const NodeId n = num_nodes();

  for (NodeId v = 0; v < n; ++v) {
    if (weights_[v] <= 0) {
      result.error = "node " + std::to_string(v) + " has non-positive weight " +
                     std::to_string(weights_[v]);
      return result;
    }
  }

  for (const auto& [u, v] : edges_) {
    if (u >= n || v >= n) {
      result.error = "edge (" + std::to_string(u) + "," + std::to_string(v) +
                     ") references a node out of range";
      return result;
    }
    if (u == v) {
      result.error = "self-loop on node " + std::to_string(u);
      return result;
    }
  }

  // Child lists by counting sort over the edge list, in insertion order.
  std::vector<std::size_t> child_offsets(n + 1, 0);
  for (const auto& edge : edges_) ++child_offsets[edge.first + 1];
  for (NodeId v = 0; v < n; ++v) child_offsets[v + 1] += child_offsets[v];
  std::vector<NodeId> child_data(edges_.size());
  std::vector<std::size_t> fill(child_offsets.begin(), child_offsets.end() - 1);
  for (const auto& [u, v] : edges_) child_data[fill[u]++] = v;
  return BuildFromChildLists(weights_, names_, std::move(child_offsets),
                             std::move(child_data), options);
}

GraphBuilder::BuildResult GraphBuilder::BuildFromChildLists(
    std::vector<Weight> weights, std::vector<std::string> names,
    std::vector<std::size_t> child_offsets, std::vector<NodeId> child_data,
    const BuildOptions& options) {
  BuildResult result;
  Graph g;
  g.weights_ = std::move(weights);
  g.names_ = std::move(names);
  g.child_offsets_ = std::move(child_offsets);
  g.child_data_ = std::move(child_data);
  const auto n = static_cast<NodeId>(g.weights_.size());
  g.total_weight_ = 0;
  for (const Weight w : g.weights_) g.total_weight_ += w;

  // Parent lists by walking the child lists in ascending parent order, so
  // every parent list comes out sorted whatever the child order was.
  g.parent_offsets_.assign(n + 1, 0);
  for (const NodeId c : g.child_data_) ++g.parent_offsets_[c + 1];
  for (NodeId v = 0; v < n; ++v) {
    g.parent_offsets_[v + 1] += g.parent_offsets_[v];
  }
  g.parent_data_.resize(g.child_data_.size());
  bool children_sorted = true;
  {
    std::vector<std::size_t> fill(g.parent_offsets_.begin(),
                                  g.parent_offsets_.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t first = g.child_offsets_[u];
      for (std::size_t i = first; i < g.child_offsets_[u + 1]; ++i) {
        const NodeId c = g.child_data_[i];
        g.parent_data_[fill[c]++] = u;
        if (i > first && g.child_data_[i - 1] >= c) children_sorted = false;
      }
    }
  }
  // Strictly ascending child lists hold no duplicate edge. Otherwise a
  // sorted parent list puts any duplicate next to its twin, and the child
  // lists are rebuilt sorted the same way the parent lists were.
  if (!children_sorted) {
    for (NodeId v = 0; v < n; ++v) {
      const auto first = g.parent_data_.begin() +
                         static_cast<std::ptrdiff_t>(g.parent_offsets_[v]);
      const auto last = g.parent_data_.begin() +
                        static_cast<std::ptrdiff_t>(g.parent_offsets_[v + 1]);
      const auto dup = std::adjacent_find(first, last);
      if (dup != last) {
        result.error = "duplicate edge (" + std::to_string(*dup) + "," +
                       std::to_string(v) + ")";
        return result;
      }
    }
    std::vector<std::size_t> fill(g.child_offsets_.begin(),
                                  g.child_offsets_.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId p : g.parents(v)) g.child_data_[fill[p]++] = v;
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (g.parents(v).empty()) g.sources_.push_back(v);
    if (g.children(v).empty()) g.sinks_.push_back(v);
  }

  if (options.require_disjoint_sources_sinks) {
    for (NodeId v = 0; v < n; ++v) {
      if (g.parents(v).empty() && g.children(v).empty()) {
        result.error = "node " + std::to_string(v) +
                       " is both source and sink (isolated); the WRBPG "
                       "assumes A(G) and Z(G) are disjoint";
        return result;
      }
    }
  }

  // Kahn's algorithm: topological order + acyclicity check.
  std::vector<std::size_t> remaining(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    remaining[v] = g.in_degree(v);
    if (remaining[v] == 0) ready.push_back(v);
  }
  g.topo_order_.reserve(n);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId v = ready[head];
    g.topo_order_.push_back(v);
    for (NodeId c : g.children(v)) {
      if (--remaining[c] == 0) ready.push_back(c);
    }
  }
  if (g.topo_order_.size() != n) {
    result.error = "graph contains a cycle";
    return result;
  }

  result.graph = std::move(g);
  result.ok = true;
  return result;
}

Graph GraphBuilder::BuildOrDie(const BuildOptions& options) const {
  BuildResult r = Build(options);
  if (!r.ok) {
    std::fprintf(stderr, "GraphBuilder::BuildOrDie: %s\n", r.error.c_str());
    std::abort();
  }
  return std::move(r.graph);
}

}  // namespace wrbpg
