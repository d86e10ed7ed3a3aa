// Exhaustive optimal WRBPG solver — the test oracle and the hot exact
// path of the RobustScheduler chain.
//
// Shortest-path search over pebbling configurations (red mask, blue mask)
// with move costs from Definition 2.2 (M1/M2 cost w_v, M3/M4 free).
// Exponential in |V|; the informed engines certify optima for graphs of a
// few dozen nodes, and the branch-and-bound engine degrades gracefully on
// anything larger (see the anytime contract below).
//
// Three engines share one searcher (DESIGN.md §9/§11):
//
//   kDijkstra        — the PR 3 uninformed level-synchronous search, kept
//                      as the audited h == 0 oracle for differential tests
//                      and the baseline row of the --engine-compare
//                      benchmark.
//   kAStar           — the exact-mode default. A* ordered by
//                      (g + h, g, len) where h is the core/state_bound
//                      admissible remaining-I/O bound (Prop 2.4
//                      generalized per state). h is admissible but not
//                      consistent, so states reopen when their g
//                      improves; the first settled goal is still optimal.
//   kBranchAndBound  — the anytime engine ("bb"). Seeds an incumbent
//                      schedule from the polynomial heuristics (belady,
//                      then greedy-topo) and runs two passes. The cost
//                      pass is an A* primed with the incumbent cost that
//                      coalesces zero-cost M3/M4 closures by dropping the
//                      length tier from the wave key — all interleavings
//                      of a free-move closure collapse into one wave. When
//                      a schedule is wanted, a second A* pass primed with
//                      the now-known optimal cost rebuilds the canonical
//                      distance map. Under any deadline, frontier byte
//                      budget, or state cap it returns the incumbent plus
//                      a sound optimality gap instead of failing. Run to
//                      completion it returns the same canonical optimum
//                      as every other engine.
//
// Anytime contract (scheduler.h): every feasible result satisfies
// lower_bound <= optimal <= cost with optimality_gap == cost -
// lower_bound, and `termination` records why the engine stopped
// (optimal / deadline / memory-cap / cancelled). The interrupted lower
// bound is the minimum f over the open frontier — sound because h is
// admissible and every undiscovered solution leaves the settled set
// through an open state.
//
// State representation: one searcher, one move enumeration and one
// heuristic closure (core/state_bound.h), written over red/blue masks
// whose word type and word count are compile-time parameters. Search()
// picks the narrowest width that holds the graph: 32 bits per colour
// (red and blue packed into one 64-bit key, red in the low half), then
// 64, 128 and 256 bits per colour with the configuration stored inline as
// the key. Past 256 nodes the same code runs over interned word arrays
// (StateInterner, schedulers/search_frontier.h) keyed by stable ids, so
// there is NO graph size beyond which the engines refuse to run.
//
// Options support the Sec. 4.1 memory-state semantics: arbitrary initial
// red/blue pebbles and a required final red set, so Eq. (8)'s P_m can be
// cross-checked as well as the plain game.
//
// Determinism contract (DESIGN.md §8/§9): for a given (graph, budget,
// options) the result is a pure function of the inputs — independent of
// the thread count AND of the engine — for every run that completes
// (deadline-interrupted results are wall-clock-dependent by nature;
// memory/state-cap stops are deterministic at a fixed thread count). The
// returned schedule is the canonical optimum: lowest cost, then fewest
// moves, then the lexicographically-least move sequence under the move
// order M1 < M2 < M3 < M4, node id ascending. All engines reconstruct
// from a distance map whose optimal-path entries provably coincide, so
// `--threads 1` vs `--threads N` and dijkstra vs A* vs bb all agree bit
// for bit; differential tests at 1/2/8 threads pin this at every width
// through the detail::SearchAtWidth seam below.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

enum class SearchEngine : std::uint8_t {
  kDijkstra = 0,
  kAStar,
  kBranchAndBound,
};

const char* ToString(SearchEngine engine);

// Counters filled by a search when BruteForceOptions::stats is set.
// `expanded` and `waves` are pure functions of (graph, budget, options) —
// identical at any thread count — and are what --engine-compare reports.
// The relaxation-level counters (generated, improved, pruned_*) can vary
// slightly across parallel runs (transient races decide which thread's
// relaxation "improves" an entry) and are informational only.
struct SearchStats {
  std::uint64_t expanded = 0;          // states settled and fanned out
  std::uint64_t waves = 0;             // level-synchronous waves run
  // Waves expanded on the worker pool rather than inline (see
  // FanOutCutoff). A function of the inputs, the requested thread count
  // and the hardware concurrency; informational only.
  std::uint64_t waves_fanned = 0;
  std::uint64_t generated = 0;         // successor relaxations attempted
  std::uint64_t improved = 0;          // relaxations that changed the map
  std::uint64_t pruned_bound = 0;      // cut by f > best known goal cost
  std::uint64_t pruned_heuristic = 0;  // cut by h == infinity (dead state)
  // Peak frontier occupancy: the largest number of live states any single
  // wave expanded — the search's working-set high-water mark. A pure
  // function of (graph, budget, options) like `expanded`/`waves`; merged
  // by max, not sum.
  std::uint64_t max_frontier = 0;
  // Estimated peak bytes held by the search containers (dist map slabs,
  // interned states, pending levels), sampled at wave boundaries — what
  // the frontier_bytes_cap meters. Merged by max.
  std::uint64_t frontier_bytes = 0;
  // Wall time inside the expansion loops, summed over chunks (DESIGN.md
  // §14); informational only.
  std::uint64_t succ_gen_ns = 0;

  void Accumulate(const SearchStats& other) {
    expanded += other.expanded;
    waves += other.waves;
    waves_fanned += other.waves_fanned;
    generated += other.generated;
    improved += other.improved;
    pruned_bound += other.pruned_bound;
    pruned_heuristic += other.pruned_heuristic;
    max_frontier = std::max(max_frontier, other.max_frontier);
    frontier_bytes = std::max(frontier_bytes, other.frontier_bytes);
    succ_gen_ns += other.succ_gen_ns;
  }
};

// Smallest wave, in live states, that a search at `threads` requested
// threads sends to its worker pool. Below it the task dispatch, the shard
// locks and the colder per-chunk relaxation memos cost more than the
// extra workers return (at 2 threads, fanning astar's 1-2k-state waves
// on dwt(8,2) made the whole search ~10% slower). Traced searches average
// well under 100 states per wave; the waves that do gain from threads
// (dijkstra's, 16k states and up) sit above it.
constexpr std::size_t FanOutCutoff(std::size_t threads) {
  return 1024 * threads;
}

struct BruteForceOptions {
  std::uint64_t initial_red = 0;  // bitmask over NodeId (ids < 64)
  // Blue pebbles at the start; defaults to the sources A(G).
  std::optional<std::uint64_t> initial_blue;
  // Goal: these nodes must hold red pebbles at the end (memory-state games).
  std::uint64_t required_red_at_end = 0;
  // Goal: all sinks must hold blue pebbles (the game's stopping condition).
  bool require_sinks_blue = true;
  // Safety valve: give up past this many settled states. The bb engine
  // returns its incumbent with termination == kMemoryCap; the exact
  // engines come back timed_out. For bb, counted cumulatively across its
  // cost and schedule passes.
  std::size_t max_states = 20'000'000;
  // Byte budget for the search containers (dist map, interned states,
  // pending levels), checked at wave boundaries; 0 disables. Exhaustion
  // is handled exactly like max_states: incumbent-return for bb,
  // timed_out for the exact engines — never an allocation failure. The
  // default keeps a runaway wide search under control while being far
  // above anything the <= 32-node oracles touch.
  std::size_t frontier_bytes_cap = 4ull << 30;
  // Cooperative cancellation: polled between search waves and every
  // few-thousand generated moves inside expansion chunks (move-count
  // based, so deadlines hold even inside one huge frontier level). On
  // expiry the bb engine returns its incumbent; the exact engines unwind
  // with a timed_out result. The token is threaded through every pool
  // task, so a parallel search honors deadlines exactly like a
  // sequential one.
  const CancelToken* cancel = nullptr;
  // Worker threads for the frontier expansion. 1 = fully sequential
  // (no pool is created); 0 = DefaultSearchThreads(), the process-wide
  // default installed by --threads / WRBPG_THREADS. Above 1, only waves
  // of at least FanOutCutoff(threads) live states are split across a
  // pool (capped at the hardware concurrency and created on the first
  // such wave); smaller waves run inline without locks. Any value
  // returns the identical result — see the determinism contract above.
  std::size_t threads = 0;
  // Which search engine to run. All engines return identical results on
  // runs that complete; they differ only in how many states they touch on
  // the way (see the --engine-compare benchmark) and in how they behave
  // when interrupted (only bb holds an incumbent).
  SearchEngine engine = SearchEngine::kAStar;
  // Certified start-state lower bound, typically the best ganalysis bound
  // certificate (ganalysis/bounds.h). Folded into the REPORTED
  // lower_bound at every interrupted exit — never into per-state h or the
  // expansion order — so schedules and costs are bit-identical with or
  // without it; only the anytime gap tightens (and an incumbent matching
  // the certificate promotes to kOptimal). The caller certifies the value
  // is a sound lower bound for this (graph, budget); it is ignored for
  // non-standard games (custom initial/required pebbles), where start-
  // state certificates do not apply.
  Weight root_lower_bound = 0;
  // Orbit pruning of first moves: the searcher skips the ROOT M1 load of
  // every node listed here. Soundness is the caller's certificate: list
  // only sources that are orbit-equivalent (verified automorphism,
  // ganalysis/canonical.h) to a smaller-id source NOT listed, so the
  // canonical optimal schedule — whose first move provably loads its
  // orbit's minimum — survives and results stay bit-identical (pinned by
  // orbit_prune_differential_test). Ignored for non-standard games.
  const std::vector<NodeId>* prune_root_loads = nullptr;
  // When non-null, filled with the search's counters on return
  // (for bb, aggregated over its cost and schedule passes).
  SearchStats* stats = nullptr;
};

class BruteForceScheduler {
 public:
  explicit BruteForceScheduler(const Graph& graph);

  ScheduleResult Run(Weight budget, const BruteForceOptions& options) const;
  ScheduleResult Run(Weight budget) const {
    return Run(budget, BruteForceOptions{});
  }
  Weight CostOnly(Weight budget, const BruteForceOptions& options) const;
  Weight CostOnly(Weight budget) const {
    return CostOnly(budget, BruteForceOptions{});
  }

 private:
  ScheduleResult Search(Weight budget, const BruteForceOptions& options,
                        bool want_schedule) const;

  const Graph& graph_;
};

namespace detail {

// SearchAtWidth's word count for interned storage: the graph's own count
// of 64-bit words, fixed at runtime.
inline constexpr std::size_t kInternedWords = 0;

// The search at one state width: `kWords` words of type `Word` per colour
// stored inline as the key, or interned ids when kWords ==
// kInternedWords (Word must then be std::uint64_t). BruteForceScheduler
// calls it at the narrowest width that holds the graph; differential
// tests call it at every width that holds theirs and expect bit-identical
// results. Instantiated for (uint32_t, 1), (uint64_t, 1), (uint64_t, 2),
// (uint64_t, 4) and (uint64_t, kInternedWords). Throws
// std::invalid_argument when the graph does not fit the width.
template <typename Word, std::size_t kWords>
ScheduleResult SearchAtWidth(const Graph& graph, Weight budget,
                             const BruteForceOptions& options,
                             bool want_schedule);

}  // namespace detail

}  // namespace wrbpg
