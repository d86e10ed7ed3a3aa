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

  Graph g;
  g.weights_ = weights_;
  g.names_ = names_;
  g.total_weight_ = 0;
  for (Weight w : weights_) g.total_weight_ += w;

  // CSR adjacency via counting sort over the edge list.
  g.parent_offsets_.assign(n + 1, 0);
  g.child_offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.parent_offsets_[v + 1];
    ++g.child_offsets_[u + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    g.parent_offsets_[v + 1] += g.parent_offsets_[v];
    g.child_offsets_[v + 1] += g.child_offsets_[v];
  }
  g.parent_data_.resize(edges_.size());
  g.child_data_.resize(edges_.size());
  {
    std::vector<std::size_t> pfill(g.parent_offsets_.begin(),
                                   g.parent_offsets_.end() - 1);
    std::vector<std::size_t> cfill(g.child_offsets_.begin(),
                                   g.child_offsets_.end() - 1);
    for (const auto& [u, v] : edges_) {
      g.parent_data_[pfill[v]++] = u;
      g.child_data_[cfill[u]++] = v;
    }
  }
  // Deterministic neighbor order (edge insertion order is already stable, but
  // sorting makes equality of graphs independent of construction order).
  // A sorted parent list also puts any duplicate edge next to its twin.
  for (NodeId v = 0; v < n; ++v) {
    const auto first = g.parent_data_.begin() +
                       static_cast<std::ptrdiff_t>(g.parent_offsets_[v]);
    const auto last = g.parent_data_.begin() +
                      static_cast<std::ptrdiff_t>(g.parent_offsets_[v + 1]);
    std::sort(first, last);
    const auto dup = std::adjacent_find(first, last);
    if (dup != last) {
      result.error = "duplicate edge (" + std::to_string(*dup) + "," +
                     std::to_string(v) + ")";
      return result;
    }
    std::sort(g.child_data_.begin() +
                  static_cast<std::ptrdiff_t>(g.child_offsets_[v]),
              g.child_data_.begin() +
                  static_cast<std::ptrdiff_t>(g.child_offsets_[v + 1]));
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
