#include "ganalysis/canonical.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <tuple>
#include <utility>

namespace wrbpg {

namespace {

// Ordered partition of a graph's vertices under equitable refinement (see
// the header comment). perm_ lists the vertices cell by cell; a cell is
// named by its start position in perm_, which never changes once the cell
// exists (a split keeps its first piece at the same start).
class OrderedPartition {
 public:
  // One cell per (weight, in-degree, out-degree) key, keys ascending,
  // every cell queued as a splitter.
  explicit OrderedPartition(const Graph& graph)
      : OrderedPartition(graph, Sized{}) {
    auto seed_key = [&](NodeId v) {
      return std::make_tuple(graph.weight(v), graph.in_degree(v),
                             graph.out_degree(v));
    };
    std::iota(perm_.begin(), perm_.end(), NodeId{0});
    std::sort(perm_.begin(), perm_.end(), [&](NodeId a, NodeId b) {
      return std::make_pair(seed_key(a), a) < std::make_pair(seed_key(b), b);
    });
    for (std::uint32_t i = 0; i < perm_.size(); ++i) {
      const NodeId v = perm_[i];
      pos_[v] = i;
      if (i > 0 && seed_key(v) == seed_key(perm_[i - 1])) {
        cell_[v] = cell_[perm_[i - 1]];
      } else {
        cell_[v] = i;
        ++num_cells_;
        Enqueue(i);
      }
      end_[cell_[v]] = i + 1;
    }
  }

  // The ordered partition a refinement describes (colors are ranks in
  // cell order). Nothing is queued: a stable refinement is equitable.
  OrderedPartition(const Graph& graph, const ColorRefinement& refinement)
      : OrderedPartition(graph, Sized{}) {
    std::vector<std::uint32_t> start(refinement.num_colors + 1, 0);
    for (const std::uint32_t c : refinement.colors) ++start[c + 1];
    for (std::uint32_t c = 0; c < refinement.num_colors; ++c) {
      start[c + 1] += start[c];
      end_[start[c]] = start[c + 1];
    }
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const std::uint32_t c = refinement.colors[v];
      cell_[v] = start[c];
      pos_[v] = next[c]++;
      perm_[pos_[v]] = v;
    }
    num_cells_ = refinement.num_colors;
  }

  // Splits cells until every cell is equitable with respect to every
  // other: all vertices of a cell have the same number of parents and the
  // same number of children in each cell.
  void Refine() {
    while (queue_head_ < queue_.size()) {
      const std::uint32_t w = queue_[queue_head_++];
      queued_[w] = 0;
      splitter_.assign(perm_.begin() + w, perm_.begin() + end_[w]);
      for (const NodeId u : splitter_) {
        for (const NodeId c : graph_->children(u)) Touch(c, kParentInW);
        for (const NodeId p : graph_->parents(u)) Touch(p, 1);
      }
      std::sort(touched_cells_.begin(), touched_cells_.end());
      for (const std::uint32_t cell : touched_cells_) SplitCell(cell);
      touched_cells_.clear();
    }
    queue_.clear();
    queue_head_ = 0;
  }

  // Splits v off the end of its cell into a singleton and queues only that
  // singleton: the partition was equitable with respect to the whole cell,
  // so counts into the remainder follow from counts into {v}.
  void Individualize(NodeId v) {
    const std::uint32_t s = cell_[v];
    const std::uint32_t e = end_[s];
    if (e - s == 1) return;
    MoveTo(v, e - 1);
    end_[s] = e - 1;
    end_[e - 1] = e;
    cell_[v] = e - 1;
    ++num_cells_;
    Enqueue(e - 1);
  }

  // Individualizes the smallest-id vertex of the first non-singleton cell
  // and re-refines; false when the partition is already discrete.
  bool IndividualizeFirstTie() {
    const auto n = static_cast<std::uint32_t>(perm_.size());
    while (first_tie_ < n && end_[first_tie_] == first_tie_ + 1) ++first_tie_;
    if (first_tie_ == n) return false;
    Individualize(*std::min_element(perm_.begin() + first_tie_,
                                    perm_.begin() + end_[first_tie_]));
    Refine();
    return true;
  }

  // colors[v] = rank of v's cell in cell order.
  ColorRefinement Colors() const {
    ColorRefinement r;
    r.colors.resize(perm_.size());
    r.num_colors = num_cells_;
    std::uint32_t rank = 0;
    for (std::uint32_t s = 0; s < perm_.size(); s = end_[s], ++rank) {
      for (std::uint32_t i = s; i < end_[s]; ++i) r.colors[perm_[i]] = rank;
    }
    return r;
  }

  // Positions in perm_; a permutation labeling once the partition is
  // discrete.
  const std::vector<std::uint32_t>& positions() const { return pos_; }

 private:
  static constexpr std::uint64_t kParentInW = std::uint64_t{1} << 32;

  struct Sized {};
  OrderedPartition(const Graph& graph, Sized)
      : graph_(&graph),
        perm_(graph.num_nodes()),
        pos_(graph.num_nodes()),
        cell_(graph.num_nodes()),
        end_(graph.num_nodes()),
        queued_(graph.num_nodes(), 0),
        key_(graph.num_nodes(), 0),
        touched_in_cell_(graph.num_nodes(), 0) {}

  void Enqueue(std::uint32_t cell) {
    queued_[cell] = 1;
    queue_.push_back(cell);
  }

  void MoveTo(NodeId v, std::uint32_t target) {
    const NodeId other = perm_[target];
    perm_[pos_[v]] = other;
    pos_[other] = pos_[v];
    perm_[target] = v;
    pos_[v] = target;
  }

  // Adds `delta` to v's count key for the current splitter. The first
  // touch moves v into its cell's touched tail, so a split sorts only the
  // touched vertices. Singletons cannot split and are skipped.
  void Touch(NodeId v, std::uint64_t delta) {
    const std::uint32_t cell = cell_[v];
    if (end_[cell] - cell == 1) return;
    if (key_[v] == 0) {
      if (touched_in_cell_[cell]++ == 0) touched_cells_.push_back(cell);
      MoveTo(v, end_[cell] - touched_in_cell_[cell]);
    }
    key_[v] += delta;
  }

  // Splits a touched cell by count key: untouched vertices (key 0) first,
  // then the touched tail in ascending key order. The piece at the cell's
  // start keeps its queue state; if the cell was queued every new piece
  // is queued, otherwise every piece but the largest (the first largest
  // on ties) — counts into it follow from the others'.
  void SplitCell(std::uint32_t s) {
    const std::uint32_t e = end_[s];
    const std::uint32_t tail = e - touched_in_cell_[s];
    touched_in_cell_[s] = 0;
    std::sort(perm_.begin() + tail, perm_.begin() + e,
              [&](NodeId a, NodeId b) { return key_[a] < key_[b]; });
    pieces_.clear();
    if (tail > s) pieces_.push_back(s);
    for (std::uint32_t i = tail; i < e; ++i) {
      pos_[perm_[i]] = i;
      if (i == tail || key_[perm_[i]] != key_[perm_[i - 1]]) {
        pieces_.push_back(i);
      }
    }
    for (std::uint32_t i = tail; i < e; ++i) key_[perm_[i]] = 0;
    if (pieces_.size() == 1) return;

    pieces_.push_back(e);
    std::size_t largest = 0;
    for (std::size_t j = 0; j + 1 < pieces_.size(); ++j) {
      const std::uint32_t a = pieces_[j];
      const std::uint32_t b = pieces_[j + 1];
      end_[a] = b;
      if (j > 0) {
        for (std::uint32_t i = a; i < b; ++i) cell_[perm_[i]] = a;
      }
      if (b - a > pieces_[largest + 1] - pieces_[largest]) largest = j;
    }
    num_cells_ += static_cast<std::uint32_t>(pieces_.size() - 2);
    const bool was_queued = queued_[s] != 0;
    for (std::size_t j = 0; j + 1 < pieces_.size(); ++j) {
      const bool queue = was_queued ? j > 0 : j != largest;
      if (queue) Enqueue(pieces_[j]);
    }
  }

  const Graph* graph_;
  std::vector<NodeId> perm_;             // vertices, cell by cell
  std::vector<std::uint32_t> pos_;       // vertex -> index in perm_
  std::vector<std::uint32_t> cell_;      // vertex -> its cell's start
  std::vector<std::uint32_t> end_;       // cell start -> one past its end
  std::vector<std::uint32_t> queue_;     // FIFO of splitter cell starts
  std::size_t queue_head_ = 0;
  std::vector<unsigned char> queued_;    // cell start -> in queue_
  std::uint32_t num_cells_ = 0;
  std::uint32_t first_tie_ = 0;  // cells before this position: singletons

  // Per-splitter scratch, all zero between splitters: key_[v] packs
  // (parents in W) << 32 | (children in W).
  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> touched_in_cell_;  // cell start -> tail size
  std::vector<std::uint32_t> touched_cells_;
  std::vector<NodeId> splitter_;
  std::vector<std::uint32_t> pieces_;
};

// Completes `partition` (equitable, nothing queued) to a discrete one by
// individualize-and-refine and returns the labeling.
std::vector<std::uint32_t> Discretize(OrderedPartition partition,
                                      std::optional<NodeId> first,
                                      NodeId n) {
  if (first && *first < n) {
    partition.Individualize(*first);
    partition.Refine();
  }
  while (partition.IndividualizeFirstTie()) {
  }
  return partition.positions();
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t x) {
  // FNV-1a over the 8 bytes of x.
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ColorRefinement RefineColors(const Graph& graph) {
  OrderedPartition partition(graph);
  partition.Refine();
  return partition.Colors();
}

GraphHash HashGraph(const Graph& graph) {
  return HashGraph(graph, RefineColors(graph));
}

GraphHash HashGraph(const Graph& graph, const ColorRefinement& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = Mix(h, graph.num_nodes());
  h = Mix(h, graph.num_edges());
  h = Mix(h, static_cast<std::uint64_t>(r.num_colors));

  // Stable color histogram: (color, class size, class weight), in color
  // order — iso-invariant because the color ranks are.
  std::vector<std::uint64_t> class_size(r.num_colors, 0);
  std::vector<std::uint64_t> class_weight(r.num_colors, 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    class_size[r.colors[v]] += 1;
    class_weight[r.colors[v]] += static_cast<std::uint64_t>(graph.weight(v));
  }
  for (std::uint32_t c = 0; c < r.num_colors; ++c) {
    h = Mix(h, c);
    h = Mix(h, class_size[c]);
    h = Mix(h, class_weight[c]);
  }

  // Edge color-pair multiset, sorted.
  std::vector<std::uint64_t> edge_pairs;
  edge_pairs.reserve(graph.num_edges());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId p : graph.parents(v)) {
      edge_pairs.push_back(
          (static_cast<std::uint64_t>(r.colors[p]) << 32) | r.colors[v]);
    }
  }
  std::sort(edge_pairs.begin(), edge_pairs.end());
  for (std::uint64_t e : edge_pairs) h = Mix(h, e);
  return h;
}

std::vector<std::uint32_t> DeterministicLabeling(
    const Graph& graph, std::optional<NodeId> individualize_first) {
  OrderedPartition partition(graph);
  partition.Refine();
  return Discretize(std::move(partition), individualize_first,
                    graph.num_nodes());
}

std::vector<std::uint32_t> DeterministicLabeling(
    const Graph& graph, const ColorRefinement& refinement) {
  // Discretizing reads only the cell sequence, which the refinement
  // fixes, so this matches the partition Refine() left behind above.
  return Discretize(OrderedPartition(graph, refinement), {},
                    graph.num_nodes());
}

bool IsIsomorphismMap(const Graph& a, const Graph& b,
                      const std::vector<NodeId>& map) {
  const NodeId n = a.num_nodes();
  if (b.num_nodes() != n || map.size() != n) return false;
  if (a.num_edges() != b.num_edges()) return false;
  // One marker array: first the bijection check (mark[w] = its preimage),
  // then per-vertex stamps of b's parent sets.
  std::vector<NodeId> mark(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (map[v] >= n || mark[map[v]] != kInvalidNode) return false;
    mark[map[v]] = v;
    if (a.weight(v) != b.weight(map[v])) return false;
  }
  std::fill(mark.begin(), mark.end(), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const auto pa = a.parents(v);
    const auto pb = b.parents(map[v]);
    if (pa.size() != pb.size()) return false;
    for (NodeId q : pb) mark[q] = v;
    // Parent lists hold no duplicates and map is injective, so equal
    // sizes plus inclusion is set equality.
    for (NodeId p : pa) {
      if (mark[map[p]] != v) return false;
    }
  }
  return true;
}

namespace {

// Bijection induced by aligning two discrete labelings: a-vertex with
// label L maps to the b-vertex with label L.
std::optional<std::vector<NodeId>> AlignLabelings(
    const std::vector<std::uint32_t>& la, const std::vector<std::uint32_t>& lb,
    NodeId n) {
  std::vector<NodeId> by_label(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (lb[v] >= n || by_label[lb[v]] != kInvalidNode) return std::nullopt;
    by_label[lb[v]] = v;
  }
  std::vector<NodeId> map(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (la[v] >= n) return std::nullopt;
    map[v] = by_label[la[v]];
  }
  return map;
}

}  // namespace

std::optional<std::vector<NodeId>> FindIsomorphism(const Graph& a,
                                                   const Graph& b) {
  if (b.num_nodes() != a.num_nodes() || a.num_edges() != b.num_edges()) {
    return std::nullopt;
  }
  return FindIsomorphism(a, DeterministicLabeling(a), b);
}

std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labels,
    const Graph& b) {
  if (b.num_nodes() != a.num_nodes() || a.num_edges() != b.num_edges()) {
    return std::nullopt;
  }
  return FindIsomorphism(a, a_labels, b, DeterministicLabeling(b));
}

std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labels,
    const Graph& b, const std::vector<std::uint32_t>& b_labels) {
  const NodeId n = a.num_nodes();
  if (b.num_nodes() != n || a.num_edges() != b.num_edges() ||
      a_labels.size() != n || b_labels.size() != n) {
    return std::nullopt;
  }
  auto map = AlignLabelings(a_labels, b_labels, n);
  if (!map || !IsIsomorphismMap(a, b, *map)) return std::nullopt;
  return map;
}

OrbitPartition ComputeOrbits(const Graph& graph) {
  return ComputeOrbits(graph, RefineColors(graph));
}

OrbitPartition ComputeOrbits(const Graph& graph, const ColorRefinement& r) {
  const NodeId n = graph.num_nodes();
  OrbitPartition part;
  part.orbit_of.resize(n);
  std::iota(part.orbit_of.begin(), part.orbit_of.end(), 0);
  if (n == 0) {
    part.num_orbits = 0;
    return part;
  }

  auto find = [&](NodeId v) {
    while (part.orbit_of[v] != v) {
      part.orbit_of[v] = part.orbit_of[part.orbit_of[v]];
      v = part.orbit_of[v];
    }
    return v;
  };
  auto unite = [&](NodeId u, NodeId v) {
    u = find(u);
    v = find(v);
    if (u == v) return;
    if (u > v) std::swap(u, v);
    part.orbit_of[v] = u;  // smaller id becomes the representative
  };

  // Every candidate labeling starts from the same equitable partition.
  const OrderedPartition stable(graph, r);
  // Candidate pairs: each vertex against its color class representative.
  std::vector<NodeId> rep(r.num_colors, kInvalidNode);
  // Labeling with the representative individualized first, computed
  // lazily once per class.
  std::vector<std::vector<std::uint32_t>> rep_labeling(r.num_colors);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = r.colors[v];
    if (rep[c] == kInvalidNode) {
      rep[c] = v;
      continue;
    }
    if (find(v) == find(rep[c])) continue;  // already known equivalent
    if (rep_labeling[c].empty()) {
      rep_labeling[c] = Discretize(stable, rep[c], n);
    }
    const auto lv = Discretize(stable, v, n);
    auto map = AlignLabelings(rep_labeling[c], lv, n);
    if (map && IsIsomorphismMap(graph, graph, *map)) {
      // The whole verified automorphism is orbit information, not just
      // the (rep, v) pair that motivated it.
      for (NodeId u = 0; u < n; ++u) unite(u, (*map)[u]);
    }
  }

  // Path-compress to the final representatives and count classes.
  std::size_t orbits = 0;
  for (NodeId v = 0; v < n; ++v) {
    part.orbit_of[v] = find(v);
    if (part.orbit_of[v] == v) ++orbits;
  }
  part.num_orbits = orbits;
  return part;
}

}  // namespace wrbpg
