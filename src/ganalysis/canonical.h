// Canonical structure analysis: color refinement, iso-invariant hashing,
// and verified vertex orbits (DESIGN.md §12).
//
// One refinement engine serves every entry point: McKay-style equitable
// refinement over an ORDERED partition. The vertices are listed cell by
// cell; the partition is seeded with (weight, in-degree, out-degree)
// classes in key order and refined by a FIFO queue of splitter cells.
// Popping splitter W counts, for each vertex, its parents in W and its
// children in W; only the cells holding touched vertices are re-split,
// their pieces ordered by (parent count, child count) and the cells taken
// in ascending position. Every ordering decision reads only invariants,
// so the cell SEQUENCE is isomorphism-invariant, and the coarsest
// equitable partition it converges to is exactly the stable 1-dimensional
// Weisfeiler-Leman partition (sorted parent/child color multisets). A
// vertex's color is its cell's rank in that sequence, so two isomorphic
// graphs produce identical color histograms — which is what makes
// HashGraph iso-invariant by construction.
//
// Orbit contract: 1-WL color classes only OVER-approximate the true
// automorphism orbits (refinement-equivalent vertices need not be mapped
// to each other by any automorphism), so ComputeOrbits never trusts the
// colors alone. Each candidate pair is confirmed by building an explicit
// vertex bijection (individualize-and-refine on both sides) and checking
// that it preserves every edge and every weight. The returned partition
// is therefore a SUB-partition of the true orbits: it may split an orbit
// (when the heuristic alignment fails) but never merges two distinct
// orbits — the direction soundness-critical consumers (root-move pruning
// in the searcher) require.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

// Stable 1-WL coloring. colors[v] is the rank (0-based) of v's cell in
// the equitable ordered partition; ranks are iso-invariant (see header
// comment).
struct ColorRefinement {
  std::vector<std::uint32_t> colors;
  std::uint32_t num_colors = 0;
};

ColorRefinement RefineColors(const Graph& graph);

// Iso-invariant structural hash: equal for isomorphic graphs, and in
// practice distinct for non-isomorphic ones (the hash folds in node/edge
// counts, the weight histogram, the stable color histogram, and the edge
// color-pair multiset; refinement-equivalent non-isomorphic graphs can
// collide, which is the standard 1-WL completeness caveat).
using GraphHash = std::uint64_t;

GraphHash HashGraph(const Graph& graph);
// Same hash from a refinement the caller already holds
// (refinement == RefineColors(graph)).
GraphHash HashGraph(const Graph& graph, const ColorRefinement& refinement);

// Verified automorphism classes. orbit_of[v] is the smallest vertex id in
// v's class; vertices share a class only when an explicit automorphism
// mapping one to the other was constructed and checked.
struct OrbitPartition {
  std::vector<NodeId> orbit_of;
  std::size_t num_orbits = 0;

  bool SameOrbit(NodeId u, NodeId v) const {
    return orbit_of[u] == orbit_of[v];
  }
};

OrbitPartition ComputeOrbits(const Graph& graph);
// Same orbits from a refinement the caller already holds
// (refinement == RefineColors(graph)).
OrbitPartition ComputeOrbits(const Graph& graph,
                             const ColorRefinement& refinement);

// Deterministic discrete labeling by individualize-and-refine: refine,
// then repeatedly split the smallest-id vertex of the first non-singleton
// cell off into a cell of its own and re-refine from that singleton,
// until every cell is a singleton. labels[v] is then v's position in the
// discrete ordered partition, a permutation of 0..n-1. Optionally a
// vertex is individualized FIRST (before any tie-breaking), which is how
// the orbit verifier aligns two sides of a candidate automorphism; an id
// outside the graph is ignored. The labeling depends on vertex ids (it is
// NOT a canonical form); use HashGraph for iso-invariant identity.
std::vector<std::uint32_t> DeterministicLabeling(
    const Graph& graph, std::optional<NodeId> individualize_first = {});
// The same labeling (bit for bit) from a refinement the caller already
// holds (refinement == RefineColors(graph)), so a caller that needs both
// HashGraph and the labeling of one graph refines it once.
std::vector<std::uint32_t> DeterministicLabeling(
    const Graph& graph, const ColorRefinement& refinement);

// True when `map` (a is mapped to map[a] in `b`) is a weight- and
// edge-preserving bijection between the two graphs.
bool IsIsomorphismMap(const Graph& a, const Graph& b,
                      const std::vector<NodeId>& map);

// Heuristic isomorphism search: aligns the two deterministic labelings
// and verifies the induced bijection explicitly. Returns the verified
// mapping (a-id -> b-id), or nullopt when the alignment fails — which is
// conservative, never wrong. Complete in practice for the regular
// dataflow families (dwt/kary/chain/mvm/butterfly).
std::optional<std::vector<NodeId>> FindIsomorphism(const Graph& a,
                                                   const Graph& b);
// Same search with a's labeling supplied by the caller (a_labels ==
// DeterministicLabeling(a)), so a graph matched many times — a cache
// entry — is labeled once. Only b is labeled here; the map is still
// verified edge by edge, so a wrong a_labels can cost a miss, never a
// wrong map.
std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labels,
    const Graph& b);
// Same search with both labelings supplied (b_labels ==
// DeterministicLabeling(b)); nothing is labeled here.
std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labels,
    const Graph& b, const std::vector<std::uint32_t>& b_labels);

}  // namespace wrbpg
