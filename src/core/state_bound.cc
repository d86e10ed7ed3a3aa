#include "core/state_bound.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace wrbpg {

template <typename Word, std::size_t kWords>
StateBound<Word, kWords>::StateBound(const Graph& graph, Weight budget,
                                     std::uint64_t required_red,
                                     bool require_sinks_blue)
    : graph_(graph),
      budget_(budget),
      require_sinks_blue_(require_sinks_blue),
      masks_(graph, /*with_children=*/true),
      required_red_(ZeroMask<Word, kWords>(masks_.words())) {
  const NodeId n = graph.num_nodes();
  assert(static_cast<std::size_t>(n) <= masks_.words() * kBits);
  compute_footprint_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    Weight footprint = graph.weight(v);
    for (NodeId p : graph.parents(v)) footprint += graph.weight(p);
    compute_footprint_[v] = footprint;
    if (v < 64 && ((required_red >> v) & 1) != 0) {
      required_red_[WordOf(v)] |= BasicGraphMasks<Word, kWords>::Bit(v);
    }
  }
}

template <typename Word, std::size_t kWords>
NodeId StateBound<Word, kWords>::NodeAt(std::size_t word, Word m) {
  return static_cast<NodeId>(word * kBits +
                             static_cast<std::size_t>(std::countr_zero(m)));
}

template <typename Word, std::size_t kWords>
void StateBound<Word, kWords>::Prepare(const Word* red, const Word* blue,
                                       Ctx& ctx) const {
  const std::size_t W = words();
  Word* need = ctx.need.data();
  Word* frontier = ctx.frontier.data();
  Word* next = ctx.next.data();
  ctx.store = 0;
  ctx.load = 0;
  ctx.dead = false;

  // Store term: sinks still owed their M2.
  //
  // Need closure: nodes that must become red in every completion. Targets
  // are the unmet red goals plus the un-red sinks still owed a store (a
  // store needs its red pebble first). The closure grows upward through
  // nodes that are neither red nor blue — those can only enter fast
  // memory via M3, which requires every parent red in turn. Blue non-red
  // nodes stop the walk (they may be re-loaded instead of recomputed, and
  // charging them here would not be additive), but a blue *source* in the
  // need set still pays its load: sources cannot be computed at all.
  bool any = false;
  for (std::size_t w = 0; w < W; ++w) {
    const Word unstored =
        require_sinks_blue_ ? (masks_.sinks()[w] & ~blue[w]) : Word{0};
    for (Word m = unstored; m != 0; m &= m - 1) {
      ctx.store += graph_.weight(NodeAt(w, m));
    }
    need[w] = (required_red_[w] | unstored) & ~red[w];
    frontier[w] = need[w] & ~blue[w];
    any = any || frontier[w] != 0;
  }

  while (any) {
    for (std::size_t w = 0; w < W; ++w) next[w] = 0;
    for (std::size_t fw = 0; fw < W; ++fw) {
      for (Word m = frontier[fw]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(fw, m);
        // A needed node with no pebble of either color must be computed.
        // Sources cannot be; and a compute whose Prop 2.3 footprint
        // exceeds the budget can never fire — either way no completion
        // exists.
        if (masks_.is_source(v) || compute_footprint_[v] > budget_) {
          ctx.dead = true;
          return;
        }
        const Word* parents = masks_.parents_of(v);
        for (std::size_t w = 0; w < W; ++w) next[w] |= parents[w];
      }
    }
    any = false;
    for (std::size_t w = 0; w < W; ++w) {
      next[w] &= ~red[w] & ~need[w];
      need[w] |= next[w];
      frontier[w] = next[w] & ~blue[w];
      any = any || frontier[w] != 0;
    }
  }

  // Load term: needed sources (all !red by construction; all blue, since a
  // needed blue-less source already went dead above).
  for (std::size_t w = 0; w < W; ++w) {
    for (Word m = need[w] & masks_.sources()[w]; m != 0; m &= m - 1) {
      ctx.load += graph_.weight(NodeAt(w, m));
    }
  }
}

template <typename Word, std::size_t kWords>
Weight StateBound<Word, kWords>::EvalMoveSlow(Ctx& ctx, const Word* red,
                                              const Word* blue, MoveType type,
                                              NodeId v) const {
  const std::size_t W = words();
  const std::size_t wd = WordOf(v);
  const Word bit = BasicGraphMasks<Word, kWords>::Bit(v);
  Word* need = ctx.tmp.data();
  Word* frontier = ctx.frontier.data();
  Word* next = ctx.next.data();
  if (type == MoveType::kCompute) {
    // Restricted re-walk: the successor's closure is a subset of the
    // parent's (red grew by v, targets shrank), so candidates can be
    // masked with ctx.need — and every non-blue member already passed the
    // parent walk's source/footprint checks, so the successor can never
    // be dead and the checks are dropped wholesale.
    bool any = false;
    for (std::size_t w = 0; w < W; ++w) {
      const Word succ_red = w == wd ? (red[w] | bit) : red[w];
      const Word unstored =
          require_sinks_blue_ ? (masks_.sinks()[w] & ~blue[w]) : Word{0};
      need[w] = (required_red_[w] | unstored) & ~succ_red;
      frontier[w] = need[w] & ~blue[w];
      any = any || frontier[w] != 0;
    }
    while (any) {
      for (std::size_t w = 0; w < W; ++w) next[w] = 0;
      for (std::size_t fw = 0; fw < W; ++fw) {
        for (Word m = frontier[fw]; m != 0; m &= m - 1) {
          const Word* parents = masks_.parents_of(NodeAt(fw, m));
          for (std::size_t w = 0; w < W; ++w) next[w] |= parents[w];
        }
      }
      next[wd] &= ~bit;  // v is red in the successor
      any = false;
      for (std::size_t w = 0; w < W; ++w) {
        next[w] &= ctx.need[w] & ~red[w] & ~need[w];
        need[w] |= next[w];
        frontier[w] = next[w] & ~blue[w];
        any = any || frontier[w] != 0;
      }
    }
    Weight load = 0;
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = need[w] & masks_.sources()[w]; m != 0; m &= m - 1) {
        load += graph_.weight(NodeAt(w, m));
      }
    }
    return ctx.store + load;
  }
  assert(type == MoveType::kDelete);
  // Incremental extension: every member of need(after) \ need(before) has
  // a derivation chain through v, so re-seed the walk at v alone and grow
  // the parent's closure. The successor's red differs from the parent's
  // only at v, and v is already in `need`, so masking candidate words
  // with the PARENT's red is exact.
  for (std::size_t w = 0; w < W; ++w) {
    need[w] = ctx.need[w];
    frontier[w] = 0;
  }
  need[wd] |= bit;
  Weight load = ctx.load;
  bool any = false;
  if ((blue[wd] & bit) != 0) {
    // A blue member joins the need set without propagating; a source
    // among them still owes its load.
    if (masks_.is_source(v)) load += graph_.weight(v);
  } else {
    frontier[wd] = bit;
    any = true;
  }
  while (any) {
    for (std::size_t w = 0; w < W; ++w) next[w] = 0;
    for (std::size_t fw = 0; fw < W; ++fw) {
      for (Word m = frontier[fw]; m != 0; m &= m - 1) {
        const NodeId u = NodeAt(fw, m);
        if (masks_.is_source(u) || compute_footprint_[u] > budget_) {
          return kInfiniteCost;
        }
        const Word* parents = masks_.parents_of(u);
        for (std::size_t w = 0; w < W; ++w) next[w] |= parents[w];
      }
    }
    any = false;
    for (std::size_t w = 0; w < W; ++w) {
      next[w] &= ~red[w] & ~need[w];
      need[w] |= next[w];
      const Word new_sources = next[w] & masks_.sources()[w];
      if ((new_sources & ~blue[w]) != 0) return kInfiniteCost;
      for (Word m = new_sources; m != 0; m &= m - 1) {
        load += graph_.weight(NodeAt(w, m));
      }
      frontier[w] = next[w] & ~blue[w];
      any = any || frontier[w] != 0;
    }
  }
  return ctx.store + load;
}

template <typename Word, std::size_t kWords>
Weight StateBound<Word, kWords>::StartBound() const {
  const Mask red = ZeroMask<Word, kWords>(words());
  return Evaluate(red.data(), masks_.sources());
}

template class StateBound<std::uint32_t, 1>;
template class StateBound<std::uint64_t, 1>;
template class StateBound<std::uint64_t, 2>;
template class StateBound<std::uint64_t, 4>;
template class StateBound<std::uint64_t, 0>;

Weight StartStateBound(const Graph& graph, Weight budget) {
  return StateBound<std::uint64_t, 0>(graph, budget, /*required_red=*/0,
                                      /*require_sinks_blue=*/true)
      .StartBound();
}

}  // namespace wrbpg
