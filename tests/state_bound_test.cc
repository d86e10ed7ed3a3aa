// Exhaustive admissibility proof-by-enumeration for core/state_bound —
// the A* heuristic of the exact engine (DESIGN.md §9).
//
// For every (red, blue) pebbling configuration of several small graphs,
// the bound must never exceed the true remaining optimal cost computed by
// the uninformed Dijkstra engine started from that configuration, and an
// infinite bound must coincide with genuine infeasibility. Graphs small
// enough are swept over ALL 4^n mask pairs; larger ones over a
// deterministic random sample. Every check runs at every width the
// bound is compiled for (32/64/128/256 bits per colour and the
// runtime-width form) that holds the graph, and the widths must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/analysis.h"
#include "core/move.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/state_bound.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "robust/fault_injector.h"
#include "schedulers/brute_force.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

// One StateBound width behind a uint64-mask interface (graphs of at most
// 64 nodes), so a check can loop over every width.
class WidthBound {
 public:
  virtual ~WidthBound() = default;
  virtual const char* name() const = 0;
  virtual Weight Evaluate(std::uint64_t red, std::uint64_t blue) const = 0;
  virtual Weight StartBound() const = 0;
  // Prepare() a state, then price legal moves out of it incrementally.
  virtual void Prepare(std::uint64_t red, std::uint64_t blue) = 0;
  virtual Weight EvaluateMove(MoveType type, NodeId v) = 0;
};

template <typename Word, std::size_t kWords>
class WidthBoundAt final : public WidthBound {
 public:
  using Bound = StateBound<Word, kWords>;
  WidthBoundAt(const char* name, const Graph& graph, Weight budget,
               std::uint64_t required_red, bool require_sinks_blue)
      : name_(name),
        bound_(graph, budget, required_red, require_sinks_blue),
        ctx_(bound_.MakeCtx()),
        red_(ToWords(0)),
        blue_(ToWords(0)) {}

  const char* name() const override { return name_; }
  Weight Evaluate(std::uint64_t red, std::uint64_t blue) const override {
    const Mask r = ToWords(red);
    const Mask b = ToWords(blue);
    return bound_.Evaluate(r.data(), b.data());
  }
  Weight StartBound() const override { return bound_.StartBound(); }
  void Prepare(std::uint64_t red, std::uint64_t blue) override {
    red_ = ToWords(red);
    blue_ = ToWords(blue);
    bound_.Prepare(red_.data(), blue_.data(), ctx_);
  }
  Weight EvaluateMove(MoveType type, NodeId v) override {
    return bound_.EvaluateMove(ctx_, red_.data(), blue_.data(), type, v);
  }

 private:
  using Mask = typename Bound::Mask;
  Mask ToWords(std::uint64_t mask) const {
    Mask words = ZeroMask<Word, kWords>(bound_.words());
    for (NodeId v = 0; v < 64 && v / Bound::kBits < bound_.words(); ++v) {
      if ((mask >> v) & 1) {
        words[v / Bound::kBits] |= BasicGraphMasks<Word, kWords>::Bit(v);
      }
    }
    return words;
  }

  const char* name_;
  Bound bound_;
  typename Bound::Ctx ctx_;
  Mask red_;
  Mask blue_;
};

// The bound at every width that holds `graph`, narrowest first.
std::vector<std::unique_ptr<WidthBound>> EveryWidth(
    const Graph& graph, Weight budget, std::uint64_t required_red = 0,
    bool require_sinks_blue = true) {
  std::vector<std::unique_ptr<WidthBound>> bounds;
  const NodeId n = graph.num_nodes();
  if (n <= 32) {
    bounds.push_back(std::make_unique<WidthBoundAt<std::uint32_t, 1>>(
        "w32", graph, budget, required_red, require_sinks_blue));
  }
  if (n <= 64) {
    bounds.push_back(std::make_unique<WidthBoundAt<std::uint64_t, 1>>(
        "w64", graph, budget, required_red, require_sinks_blue));
  }
  bounds.push_back(std::make_unique<WidthBoundAt<std::uint64_t, 2>>(
      "w128", graph, budget, required_red, require_sinks_blue));
  bounds.push_back(std::make_unique<WidthBoundAt<std::uint64_t, 4>>(
      "w256", graph, budget, required_red, require_sinks_blue));
  bounds.push_back(std::make_unique<WidthBoundAt<std::uint64_t, 0>>(
      "runtime", graph, budget, required_red, require_sinks_blue));
  return bounds;
}

Weight RedWeight(const Graph& graph, std::uint32_t red) {
  Weight sum = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if ((red >> v) & 1u) sum += graph.weight(v);
  }
  return sum;
}

// The ground truth h must stay below: remaining optimal cost from
// (red, blue), by the engine that uses no heuristic at all.
Weight TrueRemainingCost(const BruteForceScheduler& scheduler, Weight budget,
                         std::uint32_t red, std::uint32_t blue) {
  BruteForceOptions options;
  options.engine = SearchEngine::kDijkstra;
  options.initial_red = red;
  options.initial_blue = blue;
  options.threads = 1;
  return scheduler.CostOnly(budget, options);
}

void CheckPair(const Graph& graph, const BruteForceScheduler& scheduler,
               const std::vector<std::unique_ptr<WidthBound>>& bounds,
               Weight budget, std::uint32_t red, std::uint32_t blue,
               const std::string& label) {
  if (RedWeight(graph, red) > budget) return;  // not a reachable state
  const Weight h = bounds.front()->Evaluate(red, blue);
  for (const auto& bound : bounds) {
    EXPECT_EQ(bound->Evaluate(red, blue), h)
        << label << ": " << bound->name() << " disagrees with "
        << bounds.front()->name() << " at red=" << red << " blue=" << blue;
  }
  const Weight truth = TrueRemainingCost(scheduler, budget, red, blue);
  if (h >= kInfiniteCost) {
    EXPECT_GE(truth, kInfiniteCost)
        << label << ": h claims dead state at red=" << red
        << " blue=" << blue << " but optimal completion costs " << truth;
  } else {
    EXPECT_LE(h, truth) << label << ": inadmissible bound at red=" << red
                        << " blue=" << blue;
  }
}

void CheckGraph(const Graph& graph, Weight budget,
                const std::string& label) {
  ASSERT_LE(graph.num_nodes(), 32u) << label;
  const BruteForceScheduler scheduler(graph);
  const auto bounds = EveryWidth(graph, budget);
  const NodeId n = graph.num_nodes();
  if (n <= 6) {
    const std::uint32_t limit = 1u << n;
    for (std::uint32_t red = 0; red < limit; ++red) {
      for (std::uint32_t blue = 0; blue < limit; ++blue) {
        CheckPair(graph, scheduler, bounds, budget, red, blue, label);
      }
    }
  } else {
    Rng rng(2026);
    const std::uint32_t mask = (n >= 32 ? ~0u : (1u << n) - 1u);
    for (int i = 0; i < 1500; ++i) {
      const std::uint32_t red = static_cast<std::uint32_t>(rng.Next()) & mask;
      const std::uint32_t blue =
          static_cast<std::uint32_t>(rng.Next()) & mask;
      CheckPair(graph, scheduler, bounds, budget, red, blue, label);
    }
  }
}

TEST(StateBound, AdmissibleOnDiamondExhaustive) {
  const Graph graph = MakeDiamond({2, 3, 1, 2, 4});
  const Weight lo = MinValidBudget(graph);
  for (const Weight budget : {lo, lo + 2, 2 * lo}) {
    CheckGraph(graph, budget, "diamond budget=" + std::to_string(budget));
  }
}

TEST(StateBound, AdmissibleOnChainExhaustive) {
  const Graph graph = MakeChain(5, 2);
  const Weight lo = MinValidBudget(graph);
  for (const Weight budget : {lo, lo + 1}) {
    CheckGraph(graph, budget, "chain5 budget=" + std::to_string(budget));
  }
}

TEST(StateBound, AdmissibleOnKaryTreeExhaustive) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const Weight lo = MinValidBudget(tree.graph);
  CheckGraph(tree.graph, lo + 2, "kary(2,2)");
}

TEST(StateBound, AdmissibleOnDwtSampled) {
  const DwtGraph dwt = BuildDwt(4, 2);
  const Weight lo = MinValidBudget(dwt.graph);
  CheckGraph(dwt.graph, lo + 2, "dwt(4,2)");
}

TEST(StateBound, AdmissibleOnButterflySampled) {
  const ButterflyGraph fly = BuildButterfly(4);
  const Weight lo = MinValidBudget(fly.graph);
  CheckGraph(fly.graph, lo + 1, "butterfly(4)");
}

// At the canonical start state the bound reproduces Proposition 2.4.
TEST(StateBound, StartBoundIsAlgorithmicLowerBound) {
  const Graph graph = MakeDiamond({2, 3, 1, 2, 4});
  const Weight budget = MinValidBudget(graph) + 4;
  for (const auto& bound : EveryWidth(graph, budget)) {
    EXPECT_EQ(bound->StartBound(), AlgorithmicLowerBound(graph))
        << bound->name();
  }
  EXPECT_EQ(StartStateBound(graph, budget), AlgorithmicLowerBound(graph));
}

// Once every sink is blue nothing more is owed, whatever else happened.
TEST(StateBound, GoalStatesCostZero) {
  const Graph graph = MakeDiamond();
  std::uint32_t sinks = 0;
  for (const NodeId s : graph.sinks()) sinks |= 1u << s;
  for (const auto& bound : EveryWidth(graph, MinValidBudget(graph))) {
    for (std::uint32_t red = 0; red < (1u << graph.num_nodes()); ++red) {
      EXPECT_EQ(bound->Evaluate(red, sinks | 0x3u), 0u)
          << bound->name() << " red=" << red;
    }
  }
}

// A needed source that is neither red nor blue can never be loaded: the
// bound must flag the state as dead rather than underestimate it.
TEST(StateBound, DetectsUnloadableSourceAsDead) {
  const Graph graph = MakeChain(3);
  // Nothing red, nothing blue: source 0 is required but unreachable.
  for (const auto& bound : EveryWidth(graph, MinValidBudget(graph) + 2)) {
    EXPECT_GE(bound->Evaluate(0, 0), kInfiniteCost) << bound->name();
  }
}

// A needed compute whose Prop 2.3 footprint exceeds the budget can never
// fire; the state is dead even though every source is available.
TEST(StateBound, DetectsOverweightComputeAsDead) {
  const Graph graph = MakeDiamond({1, 1, 1, 1, 10});
  std::uint32_t sources = 0;
  for (const NodeId s : graph.sources()) sources |= 1u << s;
  // Budget below w4 + w2 + w3 = 12: the sink's compute can never fire.
  for (const auto& bound : EveryWidth(graph, 11)) {
    EXPECT_GE(bound->Evaluate(0, sources), kInfiniteCost) << bound->name();
  }
}

// Past 32 nodes StartBound must still reproduce Proposition 2.4 at every
// width that holds the graph (and flag a sub-footprint budget as dead).
TEST(StateBound, StartBoundBeyond32Nodes) {
  const Graph graph = MakeChain(40, 2);
  const Weight budget = MinValidBudget(graph) + 2;
  for (const auto& bound : EveryWidth(graph, budget)) {
    EXPECT_EQ(bound->StartBound(), AlgorithmicLowerBound(graph))
        << bound->name();
  }
  EXPECT_EQ(StartStateBound(graph, budget), AlgorithmicLowerBound(graph));
  for (const auto& starved : EveryWidth(graph, 1)) {
    EXPECT_GE(starved->StartBound(), kInfiniteCost) << starved->name();
  }
  EXPECT_GE(StartStateBound(graph, 1), kInfiniteCost);
}

// ---- Incremental-vs-fresh differential (DESIGN.md §14) ----
//
// The exact engine never re-runs the full closure walk for a successor it
// can derive incrementally: Prepare() caches the parent's closure and
// EvaluateMove() applies the per-move deltas of the state_bound.h move
// table. These tests pin EvaluateMove ≡ fresh Evaluate for EVERY legal
// move from every (red, blue) pair of several small graphs at every width,
// so the deltas (including the M3 invariance proof) can never drift from
// the ground-truth walk.

constexpr MoveType kAllMoveTypes[] = {MoveType::kLoad, MoveType::kStore,
                                      MoveType::kCompute, MoveType::kDelete};

void CheckIncrementalGraph(const Graph& graph, Weight budget,
                           const std::string& label) {
  ASSERT_LE(graph.num_nodes(), 32u) << label;
  const auto bounds = EveryWidth(graph, budget);
  const NodeId n = graph.num_nodes();
  std::uint32_t sources = 0;
  for (const NodeId s : graph.sources()) sources |= 1u << s;
  std::vector<std::uint32_t> parents(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId p : graph.parents(v)) parents[v] |= 1u << p;
  }

  auto check_pair = [&](std::uint32_t red, std::uint32_t blue) {
    const Weight red_weight = RedWeight(graph, red);
    if (red_weight > budget) return;  // not a reachable state
    for (const auto& bound : bounds) bound->Prepare(red, blue);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t bit = 1u << v;
      const Weight w = graph.weight(v);
      for (const MoveType type : kAllMoveTypes) {
        bool legal = false;
        std::uint32_t nred = red;
        std::uint32_t nblue = blue;
        switch (type) {
          case MoveType::kLoad:
            legal = (blue & bit) != 0 && (red & bit) == 0 &&
                    red_weight + w <= budget;
            nred |= bit;
            break;
          case MoveType::kStore:
            legal = (red & bit) != 0 && (blue & bit) == 0;
            nblue |= bit;
            break;
          case MoveType::kCompute:
            legal = (sources & bit) == 0 && (red & bit) == 0 &&
                    (parents[v] & ~red) == 0 && red_weight + w <= budget;
            nred |= bit;
            break;
          case MoveType::kDelete:
            legal = (red & bit) != 0;
            nred &= ~bit;
            break;
        }
        if (!legal) continue;  // EvalMove* preconditions require legality
        for (const auto& bound : bounds) {
          EXPECT_EQ(bound->EvaluateMove(type, v), bound->Evaluate(nred, nblue))
              << label << ": " << bound->name() << " "
              << ToString(Move{type, v}) << " from red=" << red
              << " blue=" << blue;
        }
      }
    }
  };

  if (n <= 7) {
    const std::uint32_t limit = 1u << n;
    for (std::uint32_t red = 0; red < limit; ++red) {
      for (std::uint32_t blue = 0; blue < limit; ++blue) {
        check_pair(red, blue);
      }
    }
  } else {
    Rng rng(2026);
    const std::uint32_t mask = (n >= 32 ? ~0u : (1u << n) - 1u);
    for (int i = 0; i < 1500; ++i) {
      check_pair(static_cast<std::uint32_t>(rng.Next()) & mask,
                 static_cast<std::uint32_t>(rng.Next()) & mask);
    }
  }
}

TEST(StateBoundIncremental, MatchesFreshOnDiamondExhaustive) {
  const Graph graph = MakeDiamond({2, 3, 1, 2, 4});
  const Weight lo = MinValidBudget(graph);
  for (const Weight budget : {lo, lo + 3}) {
    CheckIncrementalGraph(graph, budget,
                          "diamond budget=" + std::to_string(budget));
  }
}

TEST(StateBoundIncremental, MatchesFreshOnChainExhaustive) {
  const Graph graph = MakeChain(5, 2);
  const Weight lo = MinValidBudget(graph);
  for (const Weight budget : {lo, lo + 3}) {
    CheckIncrementalGraph(graph, budget,
                          "chain5 budget=" + std::to_string(budget));
  }
}

TEST(StateBoundIncremental, MatchesFreshOnKaryTreeExhaustive) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const Weight lo = MinValidBudget(tree.graph);
  CheckIncrementalGraph(tree.graph, lo + 2, "kary(2,2)");
}

TEST(StateBoundIncremental, MatchesFreshOnDwtSampled) {
  const DwtGraph dwt = BuildDwt(4, 2);
  const Weight lo = MinValidBudget(dwt.graph);
  CheckIncrementalGraph(dwt.graph, lo + 2, "dwt(4,2)");
}

// Beyond 32 nodes the search runs at 64 bits per colour and wider, and
// its states come from real (possibly perturbed) executions rather than
// uniform masks. Replay a valid 40-node chain schedule plus a
// FaultInjector corpus of near-valid mutants, collect every distinct
// prefix configuration (200+ of them), and pin EvaluateMove ≡ fresh
// Evaluate for every legal move out of each, at every width that holds
// the graph.
TEST(StateBoundIncremental, WideMatchesFreshOnFaultInjectedStates) {
  const Graph graph = MakeChain(40, 2);
  const Weight budget = MinValidBudget(graph) + 2;

  // Load the source, then walk the chain: compute each node, store it,
  // and drop its parent. Valid, touches every move type, and leaves a
  // blue-rich trail so store-deleting mutants diverge everywhere.
  std::vector<Move> moves;
  moves.push_back(Load(0));
  for (NodeId v = 1; v < 40; ++v) {
    moves.push_back(Compute(v));
    moves.push_back(Store(v));
    moves.push_back(Delete(v - 1));
  }
  const Schedule schedule(std::move(moves));
  ASSERT_TRUE(Simulate(graph, budget, schedule).valid);

  const NodeId n = graph.num_nodes();
  std::uint64_t sources = 0;
  for (const NodeId s : graph.sources()) sources |= 1ull << s;
  std::vector<std::uint64_t> parents(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId p : graph.parents(v)) parents[v] |= 1ull << p;
  }
  // Mirrors the simulator's per-move legality (incl. the budget check).
  auto legal = [&](std::uint64_t red, std::uint64_t blue, Weight red_weight,
                   Weight b, MoveType type, NodeId v) {
    const std::uint64_t bit = 1ull << v;
    switch (type) {
      case MoveType::kLoad:
        return (blue & bit) != 0 && (red & bit) == 0 &&
               red_weight + graph.weight(v) <= b;
      case MoveType::kStore:
        return (red & bit) != 0 && (blue & bit) == 0;
      case MoveType::kCompute:
        return (sources & bit) == 0 && (red & bit) == 0 &&
               (parents[v] & ~red) == 0 && red_weight + graph.weight(v) <= b;
      case MoveType::kDelete:
        return (red & bit) != 0;
    }
    return false;
  };

  std::set<std::tuple<Weight, std::uint64_t, std::uint64_t>> seen;
  std::size_t states_checked = 0;

  auto check_state = [&](const std::vector<std::unique_ptr<WidthBound>>& bounds,
                         Weight b, std::uint64_t red, std::uint64_t blue,
                         Weight red_weight, const std::string& label) {
    if (!seen.insert({b, red, blue}).second) return;
    ++states_checked;
    for (const auto& bound : bounds) bound->Prepare(red, blue);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t bit = 1ull << v;
      for (const MoveType type : kAllMoveTypes) {
        if (!legal(red, blue, red_weight, b, type, v)) continue;
        std::uint64_t nred = red;
        std::uint64_t nblue = blue;
        if (type == MoveType::kStore) {
          nblue |= bit;
        } else if (type == MoveType::kDelete) {
          nred &= ~bit;
        } else {
          nred |= bit;
        }
        for (const auto& bound : bounds) {
          EXPECT_EQ(bound->EvaluateMove(type, v), bound->Evaluate(nred, nblue))
              << label << ": " << bound->name() << " "
              << ToString(Move{type, v}) << " from red=" << red
              << " blue=" << blue;
        }
      }
    }
  };

  // Replay one (schedule, budget) pair, checking every prefix state and
  // stopping at the first illegal move (mutants are near-valid, not valid).
  auto replay = [&](const Schedule& sched, Weight b, const std::string& label) {
    const auto bounds = EveryWidth(graph, b);
    std::uint64_t red = 0;
    std::uint64_t blue = sources;
    Weight red_weight = 0;
    check_state(bounds, b, red, blue, red_weight, label);
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Move& m = sched[i];
      if (m.node >= n || !legal(red, blue, red_weight, b, m.type, m.node)) {
        break;
      }
      const std::uint64_t bit = 1ull << m.node;
      switch (m.type) {
        case MoveType::kLoad:
        case MoveType::kCompute:
          red |= bit;
          red_weight += graph.weight(m.node);
          break;
        case MoveType::kStore:
          blue |= bit;
          break;
        case MoveType::kDelete:
          red &= ~bit;
          red_weight -= graph.weight(m.node);
          break;
      }
      check_state(bounds, b, red, blue, red_weight, label);
    }
  };

  replay(schedule, budget, "baseline");
  const FaultInjector injector(graph, budget, schedule);
  Rng rng(0xf417u);
  for (const FaultCase& fc : injector.Corpus(rng, 12)) {
    replay(fc.schedule, fc.budget, fc.label);
  }
  EXPECT_GE(states_checked, 200u);
}

// required_red feeds the need closure even when every sink is stored.
TEST(StateBound, RequiredRedChargesLoads) {
  const Graph graph = MakeChain(3, 2);
  std::uint32_t all = (1u << graph.num_nodes()) - 1u;
  // All blue, nothing red: node 0 (a source) must be re-loaded, cost 2.
  for (const auto& bound : EveryWidth(graph, MinValidBudget(graph) + 2,
                                      /*required_red=*/1u << 0,
                                      /*require_sinks_blue=*/false)) {
    EXPECT_EQ(bound->Evaluate(0, all), 2u) << bound->name();
  }
}

}  // namespace
}  // namespace wrbpg
