// Admissible per-state lower bounds on remaining weighted I/O — the A*
// heuristic of the exact search engine (DESIGN.md §9/§11/§14).
//
// For a pebbling configuration (red, blue) and a goal (all sinks blue
// and/or a required final red set), h(red, blue) lower-bounds the
// weighted cost every valid completion must still pay:
//
//   store term  — every sink not yet blue needs one M2, costing w_v
//                 (blue pebbles are never removed, so the store is still
//                 owed no matter what else happens);
//   load term   — every source in the *need closure* that is not red must
//                 be (re-)loaded at least once: the closure walks upward
//                 from must-become-red targets through nodes that are
//                 neither red nor blue (such nodes can only be computed,
//                 which forces their parents red in turn). Sources cannot
//                 be computed, so a closure source pays its M1.
//
// At the start state (no red, sources blue) the two terms are exactly
// Proposition 2.4's algorithmic lower bound — h generalizes it to every
// intermediate state, which is what makes it an A* heuristic rather than
// a one-shot estimate. The closure also detects dead states: a needed
// source with no blue pebble can never be loaded, and a needed compute
// whose own Prop 2.3 footprint (w_v + sum of parent weights) exceeds the
// budget can never fire — both return kInfiniteCost, turning the bound
// into a pruning oracle as well.
//
// Admissibility (h <= true remaining optimal cost) is pinned exhaustively
// in tests/state_bound_test.cc over every (red, blue) mask pair of small
// graphs. h is NOT consistent — a single store can discharge both its own
// store term and an upstream load term — so the searcher reopens states
// (see brute_force.cc); admissibility alone keeps the optimum exact.
//
// INCREMENTAL EVALUATION (DESIGN.md §14). A move toggles one bit of
// (red, blue), and for most moves the successor's h follows from the
// parent's by an O(1) (or O(words)) delta — the expensive closure walk is
// only ever re-run when the move can actually change the closure:
//
//   M2 store v   need is INVARIANT: v is red, and the closure lives in
//                ~red, so v is in neither need(s) nor need(c); targets
//                gain nothing (v is excluded by ~red either way). Only
//                the store term moves: -w_v iff v is a sink still owed
//                its M2. Exact, never re-walks.
//   M1 load v    v was blue, so the walk never propagated THROUGH v
//                (blue stops the frontier); red-ing v just removes it
//                from the need set: load -w_v iff v was a needed source.
//                Exact, never re-walks.
//   M3 compute v need loses EXACTLY {v}: legality makes every parent of
//                v red, and the walk masks propagation with ~red, so no
//                member's derivation chain ever passed through v. v is a
//                non-source, so neither term moves — h is invariant.
//                Exact, never re-walks.
//   M4 delete v  v can only re-enter the closure as a target
//                (required-red or unstored sink) or as a parent of a
//                needed un-pebbled node. If neither, need is invariant.
//                Otherwise the change is purely INCREMENTAL: every new
//                member's derivation chain passes through v, so re-seed
//                the walk at v alone and extend need(s) — exact, and far
//                cheaper than a full re-walk.
//
// Prepare() runs one full walk for the state being expanded and records
// (need, store, load); EvalMoveFast() applies the exact deltas above and
// reports whether the move needed the slow path; EvalMoveSlow() is the
// fallback (full re-walk for M3, seeded extension for M4). EvaluateMove()
// composes the two and is pinned ≡ fresh Evaluate() in
// tests/state_bound_test.cc over all mask pairs of small graphs.
//
// ONE CLOSURE, EVERY WIDTH. The bound is written once over red/blue masks
// of `kWords` words of type `Word` per colour (node v lives in word
// v/bits, bit v%bits). The exact search instantiates it at 32, 64, 128
// and 256 bits per colour, where every mask — the context's closure and
// the walk's scratch included — is a stack array; kWords == 0 is the
// runtime-width form for graphs past 256 nodes, whose masks are vectors
// sized once per context by MakeCtx(). Contexts are per calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/graph_masks.h"
#include "core/move.h"
#include "core/types.h"

namespace wrbpg {

template <typename Word, std::size_t kWords>
class StateBound {
 public:
  using Mask = MaskWords<Word, kWords>;
  static constexpr std::size_t kBits = BasicGraphMasks<Word, kWords>::kBits;

  // Expansion context: the prepared state's closure, split into the
  // exactly-maintained store term and the cached-closure load term, plus
  // the walk buffers the slow paths reuse. Filled by Prepare(); read by
  // EvalMove*(). The parent masks are NOT copied — EvalMove*() take them
  // explicitly.
  struct Ctx {
    Mask need{};
    Weight store = 0;
    Weight load = 0;
    bool dead = false;
    Mask frontier{};  // walk scratch
    Mask next{};
    Mask tmp{};
  };

  // `required_red` are nodes that must hold red pebbles at the end (a
  // bitmask over node ids; only ids < 64 are representable, which covers
  // every memory-state game the engines play); `require_sinks_blue` adds
  // the game's normal stopping condition. A fixed-width instance needs
  // num_nodes() <= kWords * bits.
  StateBound(const Graph& graph, Weight budget, std::uint64_t required_red,
             bool require_sinks_blue);

  // Mask words per colour.
  std::size_t words() const { return masks_.words(); }

  // A context sized for this graph (stack-only at fixed widths).
  Ctx MakeCtx() const {
    Ctx ctx;
    if constexpr (kWords == 0) {
      ctx.need.assign(words(), 0);
      ctx.frontier.assign(words(), 0);
      ctx.next.assign(words(), 0);
      ctx.tmp.assign(words(), 0);
    }
    return ctx;
  }

  // Admissible lower bound on the remaining weighted I/O from (red, blue);
  // kInfiniteCost when no valid completion exists from this state. The
  // context overload reuses (and overwrites) `ctx`.
  Weight Evaluate(const Word* red, const Word* blue) const {
    Ctx ctx = MakeCtx();
    return Evaluate(red, blue, ctx);
  }
  Weight Evaluate(const Word* red, const Word* blue, Ctx& ctx) const {
    Prepare(red, blue, ctx);
    return ctx.dead ? kInfiniteCost : ctx.store + ctx.load;
  }

  // ---- Incremental evaluation (see the header comment's move table) ----

  // One full closure walk for the state about to be expanded.
  void Prepare(const Word* red, const Word* blue, Ctx& ctx) const;

  // Exact O(1)/O(words) delta for the moves whose closure is provably
  // unchanged (M1, M2, M3, M4 with no re-entry). Returns true and writes
  // *h on the fast path; returns false when the move needs EvalMoveSlow.
  // `move` must be legal in the prepared state, whose blue mask is `blue`.
  bool EvalMoveFast(const Ctx& ctx, const Word* blue, MoveType type,
                    NodeId v, Weight* h) const {
    if (ctx.dead) {
      *h = kInfiniteCost;
      return true;
    }
    const std::size_t wd = WordOf(v);
    const Word bit = BasicGraphMasks<Word, kWords>::Bit(v);
    switch (type) {
      case MoveType::kLoad: {
        // v was blue, so the walk never propagated through it: red-ing v
        // removes exactly v from the need set.
        Weight load = ctx.load;
        if ((ctx.need[wd] & masks_.sources()[wd] & bit) != 0) {
          load -= graph_.weight(v);
        }
        *h = ctx.store + load;
        return true;
      }
      case MoveType::kStore: {
        // v is red, so the closure lives entirely outside v: only the
        // store term can move, and it discharges iff v is an unstored sink.
        Weight store = ctx.store;
        if (require_sinks_blue_ &&
            (masks_.sinks()[wd] & ~blue[wd] & bit) != 0) {
          store -= graph_.weight(v);
        }
        *h = store + ctx.load;
        return true;
      }
      case MoveType::kCompute:
        // h is INVARIANT under every legal M3. Legality makes every parent
        // of v red, so no closure chain ever propagated THROUGH v — the
        // walk masks propagation with ~red, and everything v could emit is
        // red. Red-ing v therefore removes exactly {v} from the need set
        // (and from the targets, if it was one), and v is a non-source, so
        // neither the store nor the load term moves.
        *h = ctx.store + ctx.load;
        return true;
      case MoveType::kDelete: {
        // v re-enters the closure only as a target (required-red or
        // unstored sink) or as a parent of a needed un-pebbled node; the
        // walks are otherwise identical, so "no re-entry" ⇒ need invariant.
        const Word unstored =
            require_sinks_blue_ ? (masks_.sinks()[wd] & ~blue[wd]) : Word{0};
        if (((required_red_[wd] | unstored) & bit) != 0) return false;
        const Word* children = masks_.children_of(v);
        for (std::size_t w = 0; w < words(); ++w) {
          if ((children[w] & ctx.need[w] & ~blue[w]) != 0) return false;
        }
        *h = ctx.store + ctx.load;
        return true;
      }
    }
    return false;
  }

  // Slow path: restricted re-walk for M3 (kept for direct callers and
  // differential tests — EvalMoveFast answers every legal M3 exactly, so
  // EvaluateMove never lands here for computes), seeded incremental
  // extension for M4 (monotone closure growth through v). `red`/`blue`
  // are the prepared state's masks; the walk scratch lives in `ctx`.
  Weight EvalMoveSlow(Ctx& ctx, const Word* red, const Word* blue,
                      MoveType type, NodeId v) const;

  // Fast-else-slow composition; h of the successor of applying `move` to
  // the ctx state. Pinned ≡ fresh Evaluate of the successor in tests.
  Weight EvaluateMove(Ctx& ctx, const Word* red, const Word* blue,
                      MoveType type, NodeId v) const {
    Weight h = 0;
    if (EvalMoveFast(ctx, blue, type, v, &h)) return h;
    return EvalMoveSlow(ctx, red, blue, type, v);
  }

  // Evaluate at the canonical start state (no red, sources blue): the
  // budget-aware generalization of AlgorithmicLowerBound.
  Weight StartBound() const;

 private:
  static std::size_t WordOf(NodeId v) {
    if constexpr (kWords == 1) {
      (void)v;
      return 0;
    } else {
      return v / kBits;
    }
  }
  static NodeId NodeAt(std::size_t word, Word m);

  const Graph& graph_;
  Weight budget_;
  bool require_sinks_blue_;
  // Adjacency + legality masks, kWords words per node.
  BasicGraphMasks<Word, kWords> masks_;
  Mask required_red_;
  // Prop 2.3 footprint w_v + sum_{p in H(v)} w_p of each compute.
  std::vector<Weight> compute_footprint_;
};

// The search's widths (32, 64, 128, 256 bits per colour) and the runtime
// form are compiled once, in state_bound.cc.
extern template class StateBound<std::uint32_t, 1>;
extern template class StateBound<std::uint64_t, 1>;
extern template class StateBound<std::uint64_t, 2>;
extern template class StateBound<std::uint64_t, 4>;
extern template class StateBound<std::uint64_t, 0>;

// StateBound::StartBound for the standard game (no required red, sinks
// blue) on a graph of any size: the robust chain's budget-aware start
// certificate.
Weight StartStateBound(const Graph& graph, Weight budget);

}  // namespace wrbpg
