#include "schedulers/brute_force.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/graph_masks.h"
#include "core/simulator.h"
#include "core/state_bound.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/belady.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/search_frontier.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

// How one search pass runs. The engines are compositions of these flags:
// Dijkstra = {false, true}, A* = {true, true}, and the bb engine's cost
// pass = {true, false} (free-move coalescing; a schedule-wanting run
// follows up with an A* pass primed at the found optimum). bb also
// primes the cost pass's bound with its incumbent cost, turning the
// bound check into incumbent pruning.
struct PhaseConfig {
  bool use_heuristic = false;
  bool use_len = true;
  Weight prime_bound = kInfiniteCost;  // known upper bound on the optimum
};

// Phase outcomes. Everything past kInfeasible is an abort: the phase
// stopped early and recorded a sound lower bound on the optimum (the
// minimum f over the still-open frontier) for the anytime result.
enum class PhaseStatus : std::uint8_t {
  kFound,
  kInfeasible,
  kDeadline,   // CancelToken with a wall-clock deadline fired
  kCancelled,  // manual CancelToken::Cancel(), no deadline involved
  kStateCap,   // BruteForceOptions::max_states exhausted
  kMemoryCap,  // frontier_bytes_cap (or the interner) exhausted
};

constexpr bool IsAbort(PhaseStatus s) {
  return s != PhaseStatus::kFound && s != PhaseStatus::kInfeasible;
}

Termination ToTermination(PhaseStatus s) {
  switch (s) {
    case PhaseStatus::kDeadline: return Termination::kDeadline;
    case PhaseStatus::kCancelled: return Termination::kCancelled;
    case PhaseStatus::kStateCap:
    case PhaseStatus::kMemoryCap: return Termination::kMemoryCap;
    case PhaseStatus::kFound:
    case PhaseStatus::kInfeasible: break;
  }
  return Termination::kComplete;
}

// Deadline poll cadence inside expansion chunks, in generated moves. A
// wave over a wide graph can hold millions of states, so polling only at
// wave boundaries would blow deadlines by seconds; counting moves (a
// state generates up to 4n of them) keeps the overshoot at microseconds
// while touching the clock rarely enough not to show in profiles.
constexpr std::uint32_t kCancelPollMoves = 2048;

// ---------------------------------------------------------------------------
// The configuration space: every question the search asks about a
// (red, blue) configuration, written once over `Words()` mask words of
// type `Word` per colour — a compile-time count for the inline storage
// widths, the graph's own count for the interned one (Storage::kWords ==
// 0). A configuration is 2 * Words() words, red first, blue second.
//
// The search loads the key it is about to expand into Scratch::parent
// once; successors and predecessors are enumerated by toggling one bit of
// a copy of it around each callback, so the callback sees a complete
// candidate configuration that has no key yet. The search evaluates the
// heuristic and its pruning rules first and only then Commit()s a
// survivor through the storage policy — so pruned states never cost
// storage. FindExisting() is Commit's read-only twin for the
// reconstruction walk.
// ---------------------------------------------------------------------------
template <typename Storage>
class ConfigSpace {
 public:
  using Word = typename Storage::Word;
  static constexpr std::size_t kWords = Storage::kWords;
  static constexpr std::size_t kBits = BasicGraphMasks<Word, kWords>::kBits;
  using Key = typename Storage::Key;
  using Bound = StateBound<Word, kWords>;
  using Config = MaskWords<Word, 2 * kWords>;

  struct Scratch {
    Config parent{};  // the loaded state (never toggled)
    Config cand{};    // runtime width: the enumerations' toggled copy
    typename Bound::Ctx ctx{};  // the parent's closure (§14)
  };

  ConfigSpace(const Graph& graph, Weight budget,
              const BruteForceOptions& options)
      : graph_(graph),
        budget_(budget),
        require_sinks_blue_(options.require_sinks_blue),
        masks_(graph),
        storage_(2 * masks_.words()),
        start_(ZeroMask<Word, 2 * kWords>(2 * masks_.words())),
        required_red_(ZeroMask<Word, kWords>(masks_.words())),
        bound_(graph, budget, options.required_red_at_end,
               options.require_sinks_blue) {
    const NodeId n = graph.num_nodes();
    const std::size_t W = Words();
    Word* red = start_.data();
    Word* blue = red + W;
    std::copy(masks_.sources(), masks_.sources() + W, blue);
    if (options.initial_blue.has_value()) std::fill(blue, blue + W, Word{0});
    // The option masks are uint64, so custom pebble placements address
    // nodes 0..63; the defaults (no red, sources blue, sinks-blue goal)
    // are width-independent.
    for (NodeId v = 0; v < 64 && v < n; ++v) {
      const Word bit = BasicGraphMasks<Word, kWords>::Bit(v);
      if ((options.initial_red >> v) & 1) red[v / kBits] |= bit;
      if (options.initial_blue.has_value() &&
          ((*options.initial_blue >> v) & 1) != 0) {
        blue[v / kBits] |= bit;
      }
      if ((options.required_red_at_end >> v) & 1) {
        required_red_[v / kBits] |= bit;
      }
    }
  }

  Scratch MakeScratch() const {
    Scratch scratch;
    if constexpr (kWords == 0) {
      scratch.parent.assign(2 * Words(), 0);
      scratch.cand.assign(2 * Words(), 0);
    }
    scratch.ctx = bound_.MakeCtx();
    return scratch;
  }

  Key Start() {
    Key key{};
    const bool ok = storage_.Store(start_.data(), &key);
    assert(ok);  // an empty store always has room
    (void)ok;
    return key;
  }
  Weight InitialRedWeight() const { return RedWeight(start_.data()); }

  void LoadKey(const Key& key, Scratch& scratch) const {
    storage_.Load(key, scratch.parent.data());
  }

  bool IsGoal(const Word* config) const {
    const Word* red = config;
    const Word* blue = config + Words();
    for (std::size_t w = 0; w < Words(); ++w) {
      if ((required_red_[w] & ~red[w]) != 0) return false;
      if (require_sinks_blue_ && (masks_.sinks()[w] & ~blue[w]) != 0) {
        return false;
      }
    }
    return true;
  }
  bool IsGoalKey(const Key& key, Scratch& scratch) const {
    LoadKey(key, scratch);
    return IsGoal(scratch.parent.data());
  }

  Weight HeuristicState(const Key& key, Scratch& scratch) const {
    LoadKey(key, scratch);
    const Word* config = scratch.parent.data();
    return bound_.Evaluate(config, config + Words(), scratch.ctx);
  }

  // One closure walk for the loaded state; HeuristicMove below prices
  // every successor off this context.
  void PrepareExpand(Scratch& scratch) const {
    const Word* config = scratch.parent.data();
    bound_.Prepare(config, config + Words(), scratch.ctx);
  }

  // h of the successor reached from the prepared state via `move`: exact
  // incremental delta when the move provably leaves the closure alone,
  // else a seeded re-walk.
  Weight HeuristicMove(Move move, Scratch& scratch) const {
    const Word* red = scratch.parent.data();
    const Word* blue = red + Words();
    Weight h = 0;
    if (bound_.EvalMoveFast(scratch.ctx, blue, move.type, move.node, &h)) {
      return h;
    }
    return bound_.EvalMoveSlow(scratch.ctx, red, blue, move.type, move.node);
  }

  bool Commit(const Word* config, Key* key) {
    return storage_.Store(config, key);
  }
  bool FindExisting(const Word* config, Key* key) const {
    return storage_.Find(config, key);
  }

  // Calls fn(candidate, move_cost, move) for every legal move out of the
  // loaded state, in canonical move order (M1 < M2 < M3 < M4, node
  // ascending); fn returns true to stop early. The reconstruction walk
  // takes the first tight on-path edge this enumeration offers, which is
  // what makes the returned sequence the lexicographically-least one.
  // Each move class walks the set bits of its word-parallel legality mask
  // (ctz ascends node ids); the per-word mask is snapshotted before the
  // word's bits toggle, so the edits around each callback never perturb
  // the iteration. The candidate is only valid during the callback.
  template <typename Fn>
  void ForEachSuccessor(Scratch& scratch, Fn&& fn) const {
    const std::size_t W = Words();
    Config local;
    Word* red = CandidateBuffer(scratch, local);
    Word* blue = red + W;
    const Word* c = red;
    const Weight rw = RedWeight(red);
    for (std::size_t w = 0; w < W; ++w) {  // M1: loadable = blue & ~red
      for (Word m = blue[w] & ~red[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        const Weight wt = graph_.weight(v);
        if (rw + wt > budget_) continue;
        red[w] ^= LowBit(m);
        const bool stop = fn(c, wt, Load(v));
        red[w] ^= LowBit(m);
        if (stop) return;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {  // M2: storable = red & ~blue
      for (Word m = red[w] & ~blue[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        blue[w] ^= LowBit(m);
        const bool stop = fn(c, graph_.weight(v), Store(v));
        blue[w] ^= LowBit(m);
        if (stop) return;
      }
    }
    // M3: un-red non-sources whose parents are all red, within budget.
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = masks_.nodes()[w] & ~red[w] & ~masks_.sources()[w];
           m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        if (!masks_.ParentsSubsetOf(v, red) ||
            rw + graph_.weight(v) > budget_) {
          continue;
        }
        red[w] ^= LowBit(m);
        const bool stop = fn(c, 0, Compute(v));
        red[w] ^= LowBit(m);
        if (stop) return;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {  // M4: deletable = red
      for (Word m = red[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        red[w] ^= LowBit(m);
        const bool stop = fn(c, 0, Delete(v));
        red[w] ^= LowBit(m);
        if (stop) return;
      }
    }
  }

  // Calls fn(candidate, move_cost) for every configuration one legal move
  // BEFORE the loaded state (the reconstruction walk's backward edges).
  // Enumeration order is irrelevant here — the walk only marks.
  template <typename Fn>
  void ForEachPredecessor(Scratch& scratch, Fn&& fn) const {
    const std::size_t W = Words();
    Config local;
    Word* red = CandidateBuffer(scratch, local);
    Word* blue = red + W;
    const Word* c = red;
    const Weight rw = RedWeight(red);
    // Undo M1: predecessor lacked red v, blue v present throughout.
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = red[w] & blue[w]; m != 0; m &= m - 1) {
        red[w] ^= LowBit(m);
        fn(c, graph_.weight(NodeAt(w, m)));
        red[w] ^= LowBit(m);
      }
    }
    // Undo M3: predecessor lacked red v and held all parents red.
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = red[w] & ~masks_.sources()[w]; m != 0; m &= m - 1) {
        red[w] ^= LowBit(m);
        if (masks_.ParentsSubsetOf(NodeAt(w, m), red)) fn(c, 0);
        red[w] ^= LowBit(m);
      }
    }
    // Undo M2: predecessor lacked blue v, red v present throughout.
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = red[w] & blue[w]; m != 0; m &= m - 1) {
        blue[w] ^= LowBit(m);
        fn(c, graph_.weight(NodeAt(w, m)));
        blue[w] ^= LowBit(m);
      }
    }
    // Undo M4: predecessor held red v, within the budget like every
    // state the search can reach.
    for (std::size_t w = 0; w < W; ++w) {
      for (Word m = masks_.nodes()[w] & ~red[w]; m != 0; m &= m - 1) {
        if (rw + graph_.weight(NodeAt(w, m)) > budget_) continue;
        red[w] ^= LowBit(m);
        fn(c, 0);
        red[w] ^= LowBit(m);
      }
    }
  }

  std::size_t MemoryBytes() const { return storage_.MemoryBytes(); }

 private:
  std::size_t Words() const { return masks_.words(); }
  // A copy of the loaded state for the enumerations to toggle: `local`
  // on the stack at fixed widths (so it can live in registers), the
  // scratch's preallocated buffer at runtime width.
  static Word* CandidateBuffer(Scratch& scratch, Config& local) {
    if constexpr (kWords == 0) {
      std::copy(scratch.parent.begin(), scratch.parent.end(),
                scratch.cand.begin());
      return scratch.cand.data();
    } else {
      local = scratch.parent;
      return local.data();
    }
  }
  static Word LowBit(Word m) { return static_cast<Word>(m & (~m + 1)); }
  static NodeId NodeAt(std::size_t word, Word m) {
    return static_cast<NodeId>(word * kBits +
                               static_cast<std::size_t>(std::countr_zero(m)));
  }
  Weight RedWeight(const Word* red) const {
    Weight total = 0;
    for (std::size_t w = 0; w < Words(); ++w) {
      for (Word m = red[w]; m != 0; m &= m - 1) {
        total += graph_.weight(NodeAt(w, m));
      }
    }
    return total;
  }

  const Graph& graph_;
  const Weight budget_;
  bool require_sinks_blue_;
  BasicGraphMasks<Word, kWords> masks_;
  Storage storage_;
  Config start_;
  MaskWords<Word, kWords> required_red_;
  Bound bound_;  // read only by the informed engines
};

// The bb engine's seed: a valid schedule from the polynomial heuristics,
// held as the incumbent the search falls back on whenever it is
// interrupted. Belady first (the stronger heuristic), simulator-checked;
// greedy-topo is the universal fallback (valid for every budget >=
// MinValidBudget). Only standard games are seeded — the heuristics don't
// speak the memory-state dialect (custom initial pebbles / required-red
// goals), so those games run bb as plain exact search.
struct Incumbent {
  Schedule schedule;
  Weight cost = kInfiniteCost;
};

std::optional<Incumbent> SeedIncumbent(const Graph& graph, Weight budget,
                                       const BruteForceOptions& options) {
  if (options.initial_red != 0 || options.initial_blue.has_value() ||
      options.required_red_at_end != 0 || !options.require_sinks_blue) {
    return std::nullopt;
  }
  ScheduleResult belady = BeladyScheduler(graph).Run(budget);
  if (belady.feasible && Simulate(graph, budget, belady.schedule).valid) {
    return Incumbent{std::move(belady.schedule), belady.cost};
  }
  ScheduleResult greedy = GreedyTopoScheduler(graph).Run(budget);
  if (greedy.feasible && Simulate(graph, budget, greedy.schedule).valid) {
    return Incumbent{std::move(greedy.schedule), greedy.cost};
  }
  return std::nullopt;
}

// One exact search: level-synchronous best-first waves over (f, g, len)
// keys plus canonical reconstruction, templated over the storage policy
// (which fixes the key type and the mask width).
// Waves settle in ascending key order; because the state_bound heuristic
// is admissible but not consistent, a settled state whose g later
// improves is simply re-queued at its better key and re-expanded
// (reopening), which the dist-map-ownership check already implements. The
// first wave holding a goal is still the optimum: any cheaper goal would
// keep an open optimal-path state at a strictly smaller key (h admissible
// along that path), contradicting the wave order.
//
// Anytime soundness: when a phase aborts, every undiscovered solution
// still has to leave the settled set through an open state — one whose
// best-known g was recorded but that was never expanded at it. Such a
// state sits in the pending map, in the current (partially expanded)
// wave, or among the updates that wave recorded, and along an optimal
// path its f = g + h is at most the optimal cost (h admissible; incumbent
// pruning only drops f strictly above a valid schedule's cost). The least
// f over those three is therefore a sound lower bound on the optimum at
// the moment of abort.
template <typename Storage>
class Searcher {
 public:
  Searcher(const Graph& graph, Weight budget,
           const BruteForceOptions& options)
      : budget_(budget),
        options_(options),
        ops_(graph, budget, options),
        main_scratch_(ops_.MakeScratch()) {
    start_ = ops_.Start();
    if (options.prune_root_loads != nullptr &&
        !options.prune_root_loads->empty()) {
      pruned_root_load_.assign(graph.num_nodes(), 0);
      for (NodeId v : *options.prune_root_loads) {
        if (v < graph.num_nodes()) pruned_root_load_[v] = 1;
      }
    }
  }

  ScheduleResult Run(bool want_schedule, const Incumbent* incumbent);

 private:
  using Space = ConfigSpace<Storage>;
  using Key = typename Space::Key;
  using Word = typename Space::Word;
  using Scratch = typename Space::Scratch;

  PhaseStatus RunPhase(const PhaseConfig& cfg);

  // Per-chunk relaxation memo over the shared dist map: the best (g, len)
  // this chunk has OFFERED the map for recently-seen states. Within a
  // phase the map is monotone (TryImprove only ever lowers an entry), so
  // a repeat offer that is not lexicographically lower than a recorded
  // one provably cannot improve — it is dropped before paying the shard
  // lock and the (likely cold) probe. Direct-mapped, evict-on-collision,
  // cleared at phase starts (Reset() breaks the monotonicity the argument
  // rests on). Every skipped offer would have returned false and pushed
  // nothing, so schedules and costs are bit-identical with or without it.
  struct RelaxMemo {
    static constexpr std::size_t kSlots = 8192;  // power of two
    struct Slot {
      Key state{};
      Weight g = 0;
      std::uint32_t len = 0;
      bool used = false;
    };
    std::vector<Slot> slots;

    static std::size_t Index(const Key& s) {
      return static_cast<std::size_t>(KeyMix(s) >> 13) &
             (kSlots - 1);
    }
    // True when offering (g, len) for `s` provably cannot improve the
    // map. Otherwise records the offer — the caller MUST then make it.
    bool NonImproving(const Key& s, Weight g, std::uint32_t len) {
      if (slots.empty()) slots.resize(kSlots);
      Slot& slot = slots[Index(s)];
      if (slot.used && slot.state == s &&
          (slot.g < g || (slot.g == g && slot.len <= len))) {
        return true;
      }
      slot.state = s;
      slot.g = g;
      slot.len = len;
      slot.used = true;
      return false;
    }
    void Clear() { slots.clear(); }
  };

  void ExpandRange(const std::vector<Key>& frontier, std::size_t lo,
                   std::size_t hi, WaveKey level, const PhaseConfig& cfg,
                   UpdateBuffer<Key>& out, SearchStats& stats,
                   Scratch& scratch,
                   RelaxMemo& memo);
  Schedule Reconstruct();

  // Folds one chunk's wave updates into the pending map. Successive
  // updates overwhelmingly share a key (a state's successors cluster in
  // f), so one memoized (key -> level) slot turns most of the per-update
  // map lookups into a single comparison.
  void MergeUpdates(const UpdateBuffer<Key>& u) {
    const WaveKey* memo_key = nullptr;
    std::vector<Key>* memo_level = nullptr;
    for (std::size_t i = 0; i < u.size(); ++i) {
      const WaveKey& key = u.key(i);
      if (memo_key == nullptr || !(*memo_key == key)) {
        auto [it, inserted] = pending_.try_emplace(key);
        if (inserted) it->second = level_pool_.Acquire();
        memo_key = &it->first;
        memo_level = &it->second;
      }
      memo_level->push_back(u.state(i));
    }
  }

  // kDeadline vs kCancelled: the token knows whether it carries a
  // wall-clock deadline.
  PhaseStatus CancelStatus() const {
    if (options_.cancel != nullptr &&
        options_.cancel->remaining().has_value()) {
      return PhaseStatus::kDeadline;
    }
    return PhaseStatus::kCancelled;
  }

  // Lower bound from the wave and the pending map at an abort inside
  // `level`'s wave (RunPhase folds in the wave's recorded updates): see
  // the class comment. Records it for the result assembly.
  PhaseStatus Abort(PhaseStatus status, const WaveKey& level) {
    abort_lb_ = level.f;
    if (!pending_.empty()) {
      abort_lb_ = std::min(abort_lb_, pending_.begin()->first.f);
    }
    return status;
  }

  // Bytes the search containers hold right now; the frontier_bytes_cap
  // meter. Sampled at wave boundaries only, so it is a pure function of
  // the wave sequence — memory-cap stops are deterministic at a fixed
  // thread count.
  std::size_t FrontierBytes() const {
    std::size_t bytes = dist_.MemoryBytes() + ops_.MemoryBytes();
    for (const auto& [key, level] : pending_) {
      bytes += level.capacity() * sizeof(Key);
    }
    for (const UpdateBuffer<Key>& u : chunk_updates_) {
      bytes += u.MemoryBytes();
    }
    return bytes;
  }

  // Anytime result assembly: the incumbent plus whatever bound the search
  // managed to certify before it was interrupted. A gap of zero means the
  // frontier minimum climbed past the incumbent cost — the incumbent is
  // proven optimal even though the search never settled a goal.
  ScheduleResult AnytimeResult(bool want_schedule, const Incumbent& incumbent,
                               Weight lb, Termination termination) const {
    ScheduleResult result;
    result.feasible = true;
    result.cost = incumbent.cost;
    if (want_schedule) result.schedule = incumbent.schedule;
    result.lower_bound = std::min(incumbent.cost, lb);
    result.optimality_gap = result.cost - result.lower_bound;
    result.termination = result.optimality_gap == 0 ? Termination::kOptimal
                                                    : termination;
    return result;
  }

  // Abort without an incumbent: the legacy timed-out shape, now carrying
  // the certified lower bound and the typed stop reason.
  static ScheduleResult TimedOutResult(PhaseStatus status, Weight lb) {
    ScheduleResult result;
    result.timed_out = true;
    result.lower_bound = lb;
    result.termination = ToTermination(status);
    return result;
  }

  const Weight budget_;
  const BruteForceOptions& options_;
  Space ops_;
  Key start_{};
  Scratch main_scratch_;  // start heuristic + single-threaded reconstruction

  FlatDistMap<Key> dist_;
  std::map<WaveKey, std::vector<Key>> pending_;
  LevelPool<Key> level_pool_;
  std::vector<UpdateBuffer<Key>> chunk_updates_;
  std::vector<Scratch> chunk_scratch_;
  std::vector<RelaxMemo> chunk_memo_;
  std::size_t threads_ = 1;  // requested; fixes the cutoff and chunking
  std::size_t workers_ = 1;  // pool size, capped at the hardware

  // Shared best-known goal cost: relaxations that discover a goal lower it
  // (atomically, across all workers), and every relaxation prunes targets
  // whose f strictly exceeds it. h is admissible, so f > bound proves the
  // successor cannot sit on a solution of cost <= bound; only strictly-
  // worse states are dropped, and the distance map below the optimum is
  // undisturbed — timing of the bound updates cannot leak into the result.
  // The bb engine seeds it with its incumbent cost (PhaseConfig::
  // prime_bound), which is what makes the incumbent a pruning bound.
  std::atomic<Weight> best_goal_cost_{kInfiniteCost};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> interner_full_{false};

  std::size_t settled_ = 0;  // cumulative across phases (max_states valve)
  SearchStats stats_;        // aggregated across phases
  Weight abort_lb_ = 0;      // open-frontier bound at the last abort
  // Root M1 loads suppressed by orbit pruning (empty = none); see
  // BruteForceOptions::prune_root_loads for the soundness contract.
  std::vector<unsigned char> pruned_root_load_;
  WaveKey goal_key_;
  std::vector<Key> goal_states_;
  // Created on the first fanned wave, so a search whose waves all stay
  // small never spawns a thread. Declared last so its workers are joined
  // before any member their tasks touch is destroyed.
  std::optional<ThreadPool> pool_;
};

template <typename Storage>
void Searcher<Storage>::ExpandRange(const std::vector<Key>& frontier,
                                std::size_t lo, std::size_t hi, WaveKey level,
                                const PhaseConfig& cfg,
                                UpdateBuffer<Key>& out,
                                SearchStats& stats, Scratch& scratch,
                                RelaxMemo& memo) {
  const CancelToken* cancel = options_.cancel;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t moves_since_poll = 0;
  // Successors that survive the g/h/f gates are staged here per expanded
  // state; their dist-map slots are prefetched at stage time, so by the
  // time the flush loop below probes the map, the lines are (usually)
  // already in flight — the map's L2/L3 miss overlaps the remaining move
  // evaluations instead of stalling each relaxation in turn. Flushing in
  // stage order keeps the per-thread TryImprove/Push sequence identical
  // to the unbatched loop, so determinism is untouched.
  struct Staged {
    Key next;
    Weight g;
    Weight f;
    std::uint32_t len;
    bool goal;
  };
  std::vector<Staged> staged;
  staged.reserve(64);
  for (std::size_t i = lo; i < hi; ++i) {
    if (cancelled_.load(std::memory_order_relaxed)) break;
    const Key s = frontier[i];
    ops_.LoadKey(s, scratch);
    // One closure walk per expanded state; every successor below prices
    // off this context through the incremental fast paths (§14).
    if (cfg.use_heuristic) ops_.PrepareExpand(scratch);
    // One bound snapshot per state, not two atomic loads per move. The
    // bound only ever decreases, so pruning against a stale (higher)
    // value is sound — it prunes a subset of what the live value would,
    // and pruning is never load-bearing for correctness (the map is
    // monotone). Goal improvements still CAS the shared atomic below.
    const Weight bound = best_goal_cost_.load(std::memory_order_relaxed);
    bool aborted = false;
    staged.clear();
    // Inlined at each move class's call site, so the candidate masks stay
    // in registers and the heuristic's per-move switch folds away.
    ops_.ForEachSuccessor(scratch, [&](const Word* c, Weight move_cost,
                                       Move move)
                                       __attribute__((always_inline)) {
      // Root orbit pruning: skip suppressed first loads before they count
      // as generated (the canonical optimal path never uses one).
      if (!pruned_root_load_.empty() && s == start_ &&
          move.type == MoveType::kLoad && pruned_root_load_[move.node] != 0) {
        return false;
      }
      ++stats.generated;
      if (++moves_since_poll >= kCancelPollMoves) {
        moves_since_poll = 0;
        if (cancelled_.load(std::memory_order_relaxed) ||
            (cancel != nullptr && cancel->cancelled())) {
          cancelled_.store(true, std::memory_order_relaxed);
          aborted = true;
          return true;
        }
      }
      // g-first: h >= 0, so g > bound already implies f > bound — and
      // skipping the heuristic on such moves is pure profit on primed
      // passes (bb and the schedule pass run with bound == optimum).
      // Prunes the exact same successor set as the f-test alone; only
      // the informational pruned_bound/pruned_heuristic split can shift.
      const Weight g = level.g + move_cost;
      if (g > bound) {
        ++stats.pruned_bound;  // already provably worse than a solution
        return false;
      }
      Weight h = 0;
      if (cfg.use_heuristic) {
        h = ops_.HeuristicMove(move, scratch);
        if (h >= kInfiniteCost) {
          ++stats.pruned_heuristic;  // no completion exists from `c`
          return false;
        }
      }
      const Weight f = g + h;
      if (f > bound) {
        ++stats.pruned_bound;  // already provably worse than a solution
        return false;
      }
      const std::uint32_t len = cfg.use_len ? level.len + 1 : 0;
      Key next{};
      if (!ops_.Commit(c, &next)) {
        interner_full_.store(true, std::memory_order_relaxed);
        aborted = true;
        return true;
      }
      if (memo.NonImproving(next, g, len)) return false;
      dist_.Prefetch(next);
      staged.push_back({next, g, f, len, ops_.IsGoal(c)});
      return false;
    });
    for (const Staged& p : staged) {
      if (dist_.TryImprove(p.next, p.g, p.len)) {
        ++stats.improved;
        if (p.goal) {
          // h(goal) == 0, so f == g here.
          Weight seen = best_goal_cost_.load(std::memory_order_relaxed);
          while (p.g < seen && !best_goal_cost_.compare_exchange_weak(
                                   seen, p.g, std::memory_order_relaxed)) {
          }
        }
        out.Push(WaveKey{p.f, p.g, p.len}, p.next);
      }
    }
    if (aborted) break;
  }
  stats.succ_gen_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

template <typename Storage>
PhaseStatus Searcher<Storage>::RunPhase(const PhaseConfig& cfg) {
  dist_.Reset();
  for (RelaxMemo& memo : chunk_memo_) memo.Clear();
  pending_.clear();
  best_goal_cost_.store(cfg.prime_bound, std::memory_order_relaxed);
  goal_states_.clear();

  const Weight h0 =
      cfg.use_heuristic ? ops_.HeuristicState(start_, main_scratch_) : 0;
  if (h0 >= kInfiniteCost) return PhaseStatus::kInfeasible;
  dist_.TryImprove(start_, 0, 0);
  pending_[WaveKey{h0, 0, 0}].push_back(start_);

  bool found = false;
  std::vector<Key> live;

  while (!found && !pending_.empty()) {
    auto level_node = pending_.extract(pending_.begin());
    const WaveKey level = level_node.key();
    std::vector<Key>& frontier = level_node.mapped();

    // Drop states this level no longer owns: a later relaxation in an
    // earlier wave may have improved them into a lower level (which then
    // already expanded them), and reopening re-queues improved states
    // under their better key.
    live.clear();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      // Run a few slots ahead of the Finds — the filter is a random walk
      // over the (large) dist map, and the lookahead hides most of the
      // per-probe cache miss.
      if (i + 8 < frontier.size()) dist_.Prefetch(frontier[i + 8]);
      const Key s = frontier[i];
      const typename FlatDistMap<Key>::Entry* e = dist_.Find(s);
      if (e != nullptr && e->g == level.g && e->len == level.len) {
        live.push_back(s);
      }
    }
    level_pool_.Release(std::move(frontier));
    if (live.empty()) continue;
    ++stats_.waves;

    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Abort(CancelStatus(), level);
    }

    for (const Key s : live) {
      if (ops_.IsGoalKey(s, main_scratch_)) goal_states_.push_back(s);
    }
    if (!goal_states_.empty()) {
      // Waves settle in ascending (f, g, len) order, so the first wave
      // holding a goal is the optimum; its states are never expanded.
      goal_key_ = level;
      found = true;
      break;
    }

    settled_ += live.size();
    stats_.expanded += live.size();
    stats_.max_frontier = std::max<std::uint64_t>(stats_.max_frontier,
                                                  live.size());
    if (settled_ > options_.max_states) {
      std::fprintf(stderr,
                   "BruteForceScheduler: state limit exceeded (%zu states)\n",
                   options_.max_states);
      return Abort(PhaseStatus::kStateCap, level);
    }
    const std::size_t bytes = FrontierBytes();
    stats_.frontier_bytes = std::max<std::uint64_t>(stats_.frontier_bytes,
                                                    bytes);
    if (options_.frontier_bytes_cap != 0 &&
        bytes > options_.frontier_bytes_cap) {
      std::fprintf(stderr,
                   "BruteForceScheduler: frontier byte cap exceeded "
                   "(%zu bytes)\n",
                   options_.frontier_bytes_cap);
      return Abort(PhaseStatus::kMemoryCap, level);
    }

    // Only waves big enough to amortize the task dispatch go to the pool;
    // the rest run inline as one chunk. Inline waves have a single writer,
    // so the dist map drops its shard locks for them, exactly as in a
    // threads = 1 run. The choice is a function of the wave size and the
    // requested thread count, so every run at a given thread count makes
    // it identically.
    const bool fanned = workers_ > 1 && live.size() >= FanOutCutoff(threads_);
    dist_.SetConcurrent(fanned);
    std::size_t chunks_used = 1;
    if (fanned) {
      if (!pool_.has_value()) pool_.emplace(workers_);
      ++stats_.waves_fanned;
      const std::size_t chunk_count = threads_ * 4;
      const std::size_t chunk =
          (live.size() + chunk_count - 1) / chunk_count;
      const std::size_t num_chunks = (live.size() + chunk - 1) / chunk;
      chunks_used = num_chunks;
      if (chunk_updates_.size() < num_chunks) {
        chunk_updates_.resize(num_chunks);
      }
      while (chunk_scratch_.size() < num_chunks) {
        chunk_scratch_.push_back(ops_.MakeScratch());
      }
      if (chunk_memo_.size() < num_chunks) {
        chunk_memo_.resize(num_chunks);
      }
      std::vector<SearchStats> chunk_stats(num_chunks);
      TaskGroup group(*pool_);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        chunk_updates_[c].Clear();
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(lo + chunk, live.size());
        group.Submit([this, &live, lo, hi, level, &cfg, &chunk_stats, c] {
          ExpandRange(live, lo, hi, level, cfg, chunk_updates_[c],
                      chunk_stats[c], chunk_scratch_[c], chunk_memo_[c]);
        });
      }
      group.Wait();
      for (const SearchStats& c : chunk_stats) stats_.Accumulate(c);
    } else {
      if (chunk_updates_.empty()) chunk_updates_.resize(1);
      if (chunk_scratch_.empty()) chunk_scratch_.push_back(ops_.MakeScratch());
      if (chunk_memo_.empty()) chunk_memo_.resize(1);
      chunk_updates_[0].Clear();
      ExpandRange(live, 0, live.size(), level, cfg, chunk_updates_[0],
                  stats_, chunk_scratch_[0], chunk_memo_[0]);
    }
    // A mid-wave abort ends the phase, so this wave's updates would never
    // be expanded: rather than merging them into the pending map, fold
    // their minimum f into the Abort() lower bound — the pending map plus
    // these updates is exactly the open frontier the bound scans.
    const bool full = interner_full_.load(std::memory_order_relaxed);
    if (full || cancelled_.load(std::memory_order_relaxed)) {
      const PhaseStatus status =
          Abort(full ? PhaseStatus::kMemoryCap : CancelStatus(), level);
      for (std::size_t c = 0; c < chunks_used; ++c) {
        const UpdateBuffer<Key>& u = chunk_updates_[c];
        for (std::size_t i = 0; i < u.size(); ++i) {
          abort_lb_ = std::min(abort_lb_, u.key(i).f);
        }
      }
      return status;
    }
    for (std::size_t c = 0; c < chunks_used; ++c) {
      MergeUpdates(chunk_updates_[c]);
    }
  }

  return found ? PhaseStatus::kFound : PhaseStatus::kInfeasible;
}

template <typename Storage>
ScheduleResult Searcher<Storage>::Run(bool want_schedule,
                                  const Incumbent* incumbent) {
  // Span label carries the engine, so profiles separate dijkstra waves
  // from informed ones. Recorded per Run (both passes of a bb run fall
  // under one span).
  const obs::ScopedSpan span(std::string("search.") +
                             ToString(options_.engine));
  struct StatsFlush {
    const Searcher* self;
    ~StatsFlush() {
      if (self->options_.stats != nullptr) {
        *self->options_.stats = self->stats_;
      }
      // Mirror the run's counters into the process-wide registry
      // (write-only: nothing in the search reads these back).
      static const obs::Counter runs("search.runs");
      static const obs::Counter expanded("search.expanded");
      static const obs::Counter waves("search.waves");
      static const obs::Counter waves_fanned("search.waves_fanned");
      static const obs::Counter generated("search.generated");
      static const obs::Counter improved("search.improved");
      static const obs::Counter pruned_bound("search.pruned_bound");
      static const obs::Counter pruned_heuristic("search.pruned_heuristic");
      static const obs::Gauge max_frontier("search.max_frontier");
      static const obs::Gauge frontier_bytes("search.frontier_bytes");
      static const obs::Counter succ_gen_ns("search.succ_gen_ns");
      runs.Add(1);
      expanded.Add(self->stats_.expanded);
      waves.Add(self->stats_.waves);
      waves_fanned.Add(self->stats_.waves_fanned);
      generated.Add(self->stats_.generated);
      improved.Add(self->stats_.improved);
      pruned_bound.Add(self->stats_.pruned_bound);
      pruned_heuristic.Add(self->stats_.pruned_heuristic);
      max_frontier.Max(self->stats_.max_frontier);
      frontier_bytes.Max(self->stats_.frontier_bytes);
      succ_gen_ns.Add(self->stats_.succ_gen_ns);
    }
  } flush{this};

  const bool anytime = incumbent != nullptr;  // only the bb engine seeds one
  const bool informed = options_.engine != SearchEngine::kDijkstra;

  if (ops_.InitialRedWeight() > budget_) return ScheduleResult::Infeasible();

  // h at the start state: the day-zero lower bound every abort falls back
  // on, and the cheapest infeasibility oracle we have.
  const Weight h0 = informed ? ops_.HeuristicState(start_, main_scratch_) : 0;
  if (h0 >= kInfiniteCost) return ScheduleResult::Infeasible();

  // Day-zero reported bound: the start-state h, tightened by the caller's
  // certified root bound (a ganalysis certificate). Reporting only — the
  // search order and every schedule are independent of it.
  const Weight root_lb = std::max(h0, options_.root_lower_bound);

  // Honor tokens that are already expired before any state settles (the
  // in-loop polls would miss them on small graphs). The bb engine still
  // returns its incumbent here — the "never fail to return a schedule"
  // half of the anytime contract.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    if (anytime) {
      return AnytimeResult(want_schedule, *incumbent, root_lb,
                           ToTermination(CancelStatus()));
    }
    return TimedOutResult(CancelStatus(), root_lb);
  }

  threads_ = ResolveThreadCount(options_.threads);
  // Pool size is capped at the hardware concurrency: extra workers on an
  // oversubscribed machine only add context switches under the expansion
  // locks. Results are unchanged by construction — the determinism
  // contract holds for ANY worker count, and the wave chunking stays a
  // function of the REQUESTED count (chunk merges are chunk-ordered, so
  // the pending map sees the same update sequence either way). The pool
  // itself is created lazily by RunPhase.
  workers_ = std::min<std::size_t>(
      threads_,
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));

  PhaseConfig cfg;
  cfg.use_heuristic = informed;
  // bb's cost pass coalesces free-move closures (no length tier).
  const bool two_phase = options_.engine == SearchEngine::kBranchAndBound;
  if (two_phase) cfg.use_len = false;
  if (anytime) cfg.prime_bound = incumbent->cost;

  PhaseStatus status = RunPhase(cfg);
  if (IsAbort(status)) {
    const Weight lb = std::max(root_lb, abort_lb_);
    if (anytime) {
      return AnytimeResult(want_schedule, *incumbent, lb,
                           ToTermination(status));
    }
    return TimedOutResult(status, lb);
  }
  if (status == PhaseStatus::kInfeasible) {
    if (anytime) {
      // Unreachable in practice: the incumbent is a valid schedule, so a
      // goal with f <= its cost exists and incumbent pruning cannot drop
      // it. Handled honestly all the same — hand the incumbent back with
      // the start bound rather than contradicting it.
      return AnytimeResult(want_schedule, *incumbent, root_lb,
                           Termination::kComplete);
    }
    return ScheduleResult::Infeasible();
  }

  ScheduleResult result;
  result.feasible = true;
  result.cost = goal_key_.g;
  result.lower_bound = result.cost;
  result.optimality_gap = 0;
  result.termination = Termination::kOptimal;
  if (!want_schedule) return result;

  if (two_phase) {
    // The cost pass ran without the length tier, so its distance map
    // cannot drive the canonical reconstruction.
    // Re-run A* with the optimum as the pruning bound from move zero: it
    // settles exactly the f <= C* states whose optimal-path entries the
    // plain A* map would hold, so the reconstruction below is bit-for-bit
    // the same schedule every engine returns.
    PhaseConfig exact;
    exact.use_heuristic = true;
    exact.prime_bound = result.cost;
    status = RunPhase(exact);
    if (IsAbort(status)) {
      // The optimum C* is already proven; only the canonical schedule is
      // missing. With an incumbent in hand, return it bounded by C*
      // (often gap zero, i.e. the incumbent was optimal all along).
      if (anytime) {
        return AnytimeResult(want_schedule, *incumbent, result.cost,
                             ToTermination(status));
      }
      return TimedOutResult(status, result.cost);
    }
    assert(status == PhaseStatus::kFound);
    if (status != PhaseStatus::kFound) return ScheduleResult::Infeasible();
    assert(goal_key_.g == result.cost);
  }
  result.schedule = Reconstruct();
  return result;
}

// Rebuilds the canonical optimal schedule from the finished distance map.
// Two passes over the tight-edge graph (edges where dist[p] + move ==
// dist[s], the edges shortest paths are made of):
//   1. mark every state lying on some optimal path, by walking tight
//      edges backwards from the optimal goal states;
//   2. walk forwards from the start, always taking the first marked tight
//      edge in canonical move order.
// Both passes are pure functions of the distance map restricted to
// optimal-path states, and those entries are identical for every engine
// and thread count (DESIGN.md §9): a state is marked iff it is genuinely
// reachable at exactly the tight (g, len) — any such state lies on a
// cost-C* path, every prefix of which has f <= C* by admissibility, so
// no engine's pruning can have missed it. The walk asks the policy for
// predecessor/successor candidates and resolves them with FindExisting()
// (never Commit), so reconstruction cannot grow the interned state set.
template <typename Storage>
Schedule Searcher<Storage>::Reconstruct() {
  const Weight goal_g = goal_key_.g;
  const std::uint32_t goal_len = goal_key_.len;

  using Entry = typename FlatDistMap<Key>::Entry;
  std::unordered_set<Key, KeyHasher> marked;
  std::vector<Key> stack;
  for (const Key& goal : goal_states_) {
    if (marked.insert(goal).second) stack.push_back(goal);
  }
  while (!stack.empty()) {
    const Key s = stack.back();
    stack.pop_back();
    const Entry* entry = dist_.Find(s);
    assert(entry != nullptr);
    if (entry->len == 0) continue;  // the start state has no predecessors
    const Weight s_g = entry->g;
    const std::uint32_t s_len = entry->len;
    ops_.LoadKey(s, main_scratch_);
    ops_.ForEachPredecessor(main_scratch_, [&](const Word* c,
                                               Weight move_cost) {
      Key p{};
      if (!ops_.FindExisting(c, &p)) return;
      const Entry* pe = dist_.Find(p);
      if (pe != nullptr && pe->g == s_g - move_cost &&
          pe->len == s_len - 1 && marked.insert(p).second) {
        stack.push_back(p);
      }
    });
  }
  assert(marked.contains(start_));

  std::vector<Move> moves;
  moves.reserve(goal_len);
  Key s = start_;
  Weight g = 0;
  std::uint32_t len = 0;
  while (true) {
    ops_.LoadKey(s, main_scratch_);
    if (g == goal_g && len == goal_len &&
        ops_.IsGoal(main_scratch_.parent.data())) {
      break;
    }
    assert(len < goal_len);
    bool advanced = false;
    ops_.ForEachSuccessor(main_scratch_, [&](const Word* c, Weight move_cost,
                                             Move move) {
      Key next{};
      if (!ops_.FindExisting(c, &next)) return false;
      const Entry* d = dist_.Find(next);
      if (d == nullptr || d->g != g + move_cost || d->len != len + 1 ||
          !marked.contains(next)) {
        return false;
      }
      moves.push_back(move);
      s = next;
      g += move_cost;
      ++len;
      advanced = true;
      return true;
    });
    assert(advanced);
    if (!advanced) break;  // unreachable; avoids a hang in release builds
  }
  return Schedule(std::move(moves));
}

}  // namespace

const char* ToString(SearchEngine engine) {
  switch (engine) {
    case SearchEngine::kDijkstra: return "dijkstra";
    case SearchEngine::kAStar: return "astar";
    case SearchEngine::kBranchAndBound: return "bb";
  }
  return "unknown";
}

BruteForceScheduler::BruteForceScheduler(const Graph& graph) : graph_(graph) {}

namespace detail {

template <typename Word, std::size_t kWords>
ScheduleResult SearchAtWidth(const Graph& graph, Weight budget,
                             const BruteForceOptions& options,
                             bool want_schedule) {
  constexpr std::size_t kBits = std::numeric_limits<Word>::digits;
  if (kWords != kInternedWords && graph.num_nodes() > kWords * kBits) {
    throw std::invalid_argument(
        "SearchAtWidth: " + std::to_string(graph.num_nodes()) +
        " nodes do not fit " + std::to_string(kWords * kBits) +
        " bits per colour");
  }

  // Start-state certificates and root orbit pruning are sound only for
  // the standard game (empty red, sources blue, sinks-blue goal); drop
  // them silently for the memory-state variants.
  BruteForceOptions opts = options;
  const bool standard_game =
      opts.initial_red == 0 && !opts.initial_blue.has_value() &&
      opts.required_red_at_end == 0 && opts.require_sinks_blue;
  if (!standard_game) {
    opts.root_lower_bound = 0;
    opts.prune_root_loads = nullptr;
  }

  std::optional<Incumbent> incumbent;
  if (opts.engine == SearchEngine::kBranchAndBound) {
    incumbent = SeedIncumbent(graph, budget, opts);
  }
  const Incumbent* inc = incumbent.has_value() ? &*incumbent : nullptr;

  using Storage = std::conditional_t<kWords == kInternedWords, StateInterner,
                                     InlineStates<Word, kWords>>;
  return Searcher<Storage>(graph, budget, opts).Run(want_schedule, inc);
}

template ScheduleResult SearchAtWidth<std::uint32_t, 1>(
    const Graph&, Weight, const BruteForceOptions&, bool);
template ScheduleResult SearchAtWidth<std::uint64_t, 1>(
    const Graph&, Weight, const BruteForceOptions&, bool);
template ScheduleResult SearchAtWidth<std::uint64_t, 2>(
    const Graph&, Weight, const BruteForceOptions&, bool);
template ScheduleResult SearchAtWidth<std::uint64_t, 4>(
    const Graph&, Weight, const BruteForceOptions&, bool);
template ScheduleResult SearchAtWidth<std::uint64_t, kInternedWords>(
    const Graph&, Weight, const BruteForceOptions&, bool);

}  // namespace detail

ScheduleResult BruteForceScheduler::Search(Weight budget,
                                           const BruteForceOptions& options,
                                           bool want_schedule) const {
  // The narrowest configuration that holds the graph: one 64-bit key up
  // to 32 nodes, inline wide keys up to 256, interned ids beyond. Every
  // width returns bit-identical results — there is no graph size the
  // engines refuse.
  const NodeId n = graph_.num_nodes();
  const ScheduleResult result =
      n <= 32    ? detail::SearchAtWidth<std::uint32_t, 1>(graph_, budget,
                                                           options,
                                                           want_schedule)
      : n <= 64  ? detail::SearchAtWidth<std::uint64_t, 1>(graph_, budget,
                                                           options,
                                                           want_schedule)
      : n <= 128 ? detail::SearchAtWidth<std::uint64_t, 2>(graph_, budget,
                                                           options,
                                                           want_schedule)
      : n <= 256 ? detail::SearchAtWidth<std::uint64_t, 4>(graph_, budget,
                                                           options,
                                                           want_schedule)
                 : detail::SearchAtWidth<std::uint64_t, detail::kInternedWords>(
                       graph_, budget, options, want_schedule);

  if (options.engine == SearchEngine::kBranchAndBound) {
    static const obs::Counter bb_runs("search.bb.runs");
    static const obs::Counter bb_optimal("search.bb.optimal");
    static const obs::Counter bb_anytime("search.bb.anytime");
    static const obs::Gauge bb_gap("search.bb.gap");
    bb_runs.Add(1);
    if (result.termination == Termination::kOptimal) {
      bb_optimal.Add(1);
    } else if (result.feasible) {
      bb_anytime.Add(1);
    }
    if (result.feasible) {
      bb_gap.Max(static_cast<std::uint64_t>(result.optimality_gap));
    }
  }
  return result;
}

ScheduleResult BruteForceScheduler::Run(Weight budget,
                                        const BruteForceOptions& options) const {
  return Search(budget, options, /*want_schedule=*/true);
}

Weight BruteForceScheduler::CostOnly(Weight budget,
                                     const BruteForceOptions& options) const {
  return Search(budget, options, /*want_schedule=*/false).cost;
}

}  // namespace wrbpg
