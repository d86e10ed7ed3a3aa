// Differential tests for the DESIGN.md §8 determinism contract: for any
// (graph, budget, options), the brute-force search and the analysis-layer
// budget scans return BIT-IDENTICAL results at every thread count — same
// feasibility, same cost, same move sequence. The parallel paths share no
// tie-break with luck: they reconstruct the canonical schedule from the
// same distance map the sequential run computes.
//
// Coverage: four graph families at several budgets, the
// FindMinimumFastMemory linear scan, and 200+ search problems derived
// from FaultInjector corpora (mutated budgets and mid-schedule memory
// states make the search land on infeasible, trivial, and adversarial
// instances alike).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "robust/fault_injector.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "tests/search_widths.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

using testing::ExpectValid;
using testing::MakeChain;
using testing::MakeDiamond;

// Asserts the full result triple (feasibility, cost, schedule) matches.
void ExpectIdentical(const ScheduleResult& seq, const ScheduleResult& par,
                     const std::string& label) {
  EXPECT_EQ(seq.feasible, par.feasible) << label;
  EXPECT_EQ(seq.timed_out, par.timed_out) << label;
  EXPECT_EQ(seq.cost, par.cost) << label;
  EXPECT_TRUE(seq.schedule == par.schedule)
      << label << ": schedules differ\nseq:\n"
      << seq.schedule.ToString() << "par:\n"
      << par.schedule.ToString();
}

void ExpectIdenticalAcrossThreadCounts(const Graph& graph, Weight budget,
                                       const std::string& label) {
  const BruteForceScheduler scheduler(graph);
  BruteForceOptions options;
  options.threads = 1;
  const ScheduleResult seq = scheduler.Run(budget, options);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const ScheduleResult par = scheduler.Run(budget, options);
    ExpectIdentical(seq, par,
                    label + " threads=" + std::to_string(threads));
  }
  if (seq.feasible) {
    const SimResult sim = ExpectValid(graph, budget, seq.schedule);
    EXPECT_EQ(sim.cost, seq.cost) << label;
  }
}

TEST(ParallelDeterminism, DwtFamily) {
  const DwtGraph dwt = BuildDwt(4, 2);
  const Weight lo = MinValidBudget(dwt.graph);
  for (const Weight budget : {lo, lo + 1, lo + 3, 2 * lo}) {
    ExpectIdenticalAcrossThreadCounts(
        dwt.graph, budget, "dwt(4,2) budget=" + std::to_string(budget));
  }
}

TEST(ParallelDeterminism, KaryTreeFamily) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const Weight lo = MinValidBudget(tree.graph);
  for (const Weight budget : {lo, lo + 2, 2 * lo}) {
    ExpectIdenticalAcrossThreadCounts(
        tree.graph, budget, "kary(2,2) budget=" + std::to_string(budget));
  }
}

TEST(ParallelDeterminism, ButterflyFamily) {
  const ButterflyGraph fly = BuildButterfly(4);
  const Weight lo = MinValidBudget(fly.graph);
  for (const Weight budget : {lo, lo + 1}) {
    ExpectIdenticalAcrossThreadCounts(
        fly.graph, budget, "butterfly(4) budget=" + std::to_string(budget));
  }
}

TEST(ParallelDeterminism, RandomDagFamily) {
  Rng rng(2026);
  RandomDagOptions options;
  options.num_layers = 3;
  options.nodes_per_layer = 3;
  options.max_in_degree = 2;
  for (int instance = 0; instance < 3; ++instance) {
    const Graph graph = BuildRandomDag(rng, options);
    const Weight lo = MinValidBudget(graph);
    for (const Weight budget : {lo, lo + 4}) {
      ExpectIdenticalAcrossThreadCounts(
          graph, budget,
          "random-dag#" + std::to_string(instance) +
              " budget=" + std::to_string(budget));
    }
  }
}

TEST(ParallelDeterminism, InfeasibleBudgetAgrees) {
  const Graph graph = MakeDiamond();
  ExpectIdenticalAcrossThreadCounts(graph, MinValidBudget(graph) - 1,
                                    "diamond infeasible");
}

TEST(ParallelDeterminism, MinimumFastMemoryLinearScan) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const BruteForceScheduler scheduler(tree.graph);
  const CostFn cost_fn = [&](Weight budget) {
    return scheduler.CostOnly(budget);
  };
  const Weight target = AlgorithmicLowerBound(tree.graph);
  MinMemoryOptions options;
  options.lo = 1;
  options.hi = MinValidBudget(tree.graph) + 16;
  options.monotone = false;
  options.threads = 1;
  const auto seq = FindMinimumFastMemory(cost_fn, target, options);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const auto par = FindMinimumFastMemory(cost_fn, target, options);
    EXPECT_EQ(seq, par) << "threads=" << threads;
  }
  ASSERT_TRUE(seq.has_value());
}

TEST(ParallelDeterminism, BudgetSweepIdentical) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const BruteForceScheduler scheduler(tree.graph);
  const CostFn cost_fn = [&](Weight budget) {
    return scheduler.CostOnly(budget);
  };
  std::vector<Weight> budgets;
  const Weight lo = MinValidBudget(tree.graph);
  for (Weight b = lo - 1; b <= lo + 12; ++b) budgets.push_back(b);
  BudgetSweepOptions options;
  options.threads = 1;
  const std::vector<Weight> seq = EvaluateBudgets(cost_fn, budgets, options);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    EXPECT_EQ(EvaluateBudgets(cost_fn, budgets, options), seq)
        << "threads=" << threads;
  }
}

// Small waves run inline at any thread count (FanOutCutoff), so most
// instances above never touch the pool. This one is chosen so that they
// do: dijkstra on an ample-budget kary(2,3) tree grows waves past the
// 8-thread cutoff, and 2 and 8 threads must still bit-match 1 thread at
// every state width.
TEST(ParallelDeterminism, FannedWavesBitMatchSequential) {
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight budget = 2 * MinValidBudget(tree.graph);
  for (const testing::SearchWidth& width : testing::WidthsFor(tree.graph)) {
    const std::string label = width.name;
    BruteForceOptions options;
    options.engine = SearchEngine::kDijkstra;
    options.threads = 1;
    SearchStats seq_stats;
    options.stats = &seq_stats;
    const ScheduleResult seq = width.Run(tree.graph, budget, options);
    ASSERT_TRUE(seq.feasible) << label;
    ASSERT_GE(seq_stats.max_frontier, FanOutCutoff(8)) << label;
    EXPECT_EQ(seq_stats.waves_fanned, 0u) << label;
    for (const std::size_t threads : {2u, 8u}) {
      options.threads = threads;
      SearchStats par_stats;
      options.stats = &par_stats;
      const ScheduleResult par = width.Run(tree.graph, budget, options);
      const std::string run = label + " threads=" + std::to_string(threads);
      ExpectIdentical(seq, par, run);
      EXPECT_EQ(par_stats.expanded, seq_stats.expanded) << run;
      EXPECT_EQ(par_stats.waves, seq_stats.waves) << run;
      if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(par_stats.waves_fanned, 0u) << run;
      }
    }
    const SimResult sim = ExpectValid(tree.graph, budget, seq.schedule);
    EXPECT_EQ(sim.cost, seq.cost) << label;
  }
}

// Replays the first `len` moves of a schedule known to be valid, returning
// the resulting (red, blue) masks for use as a brute-force initial state.
struct PebbleMasks {
  std::uint64_t red = 0;
  std::uint64_t blue = 0;
};

PebbleMasks ReplayPrefix(const Graph& graph, const Schedule& schedule,
                         std::size_t len) {
  PebbleMasks masks;
  for (const NodeId v : graph.sources()) masks.blue |= std::uint64_t{1} << v;
  for (std::size_t i = 0; i < len && i < schedule.size(); ++i) {
    const Move& move = schedule[i];
    const std::uint64_t bit = std::uint64_t{1} << move.node;
    switch (move.type) {
      case MoveType::kLoad:
      case MoveType::kCompute:
        masks.red |= bit;
        break;
      case MoveType::kStore:
        masks.blue |= bit;
        break;
      case MoveType::kDelete:
        masks.red &= ~bit;
        break;
    }
  }
  return masks;
}

// 200+ differential cases: every FaultInjector mutant of a few base
// schedules becomes a fresh search problem — the mutant's (possibly
// tightened) budget plus the memory state reached just before the fault
// site. Thread counts 1 and 8 must agree on all of them.
TEST(ParallelDeterminism, FaultInjectorDerivedCases) {
  struct Base {
    std::string name;
    Graph graph;
    Weight budget = 0;
  };
  std::vector<Base> bases;
  bases.push_back({"diamond", MakeDiamond({2, 3, 1, 2, 4}), 0});
  bases.push_back({"chain6", MakeChain(6, 2), 0});
  bases.push_back({"dwt(4,1)", BuildDwt(4, 1).graph, 0});
  bases.push_back({"kary(2,2)", BuildPerfectTree(2, 2).graph, 0});

  Rng rng(7);
  int cases_run = 0;
  for (Base& base : bases) {
    base.budget = MinValidBudget(base.graph) + 2;
    const ScheduleResult seed = BeladyScheduler(base.graph).Run(base.budget);
    ASSERT_TRUE(seed.feasible) << base.name;
    ExpectValid(base.graph, base.budget, seed.schedule);

    const FaultInjector injector(base.graph, base.budget, seed.schedule);
    const std::vector<FaultCase> corpus = injector.Corpus(rng, 12);
    const BruteForceScheduler scheduler(base.graph);
    for (const FaultCase& fault : corpus) {
      const PebbleMasks masks =
          ReplayPrefix(base.graph, seed.schedule, fault.position);
      BruteForceOptions options;
      options.initial_red = masks.red;
      options.initial_blue = masks.blue;
      options.threads = 1;
      const ScheduleResult seq = scheduler.Run(fault.budget, options);
      options.threads = 8;
      const ScheduleResult par = scheduler.Run(fault.budget, options);
      ExpectIdentical(seq, par, base.name + " " + fault.label);
      ++cases_run;
    }
  }
  EXPECT_GE(cases_run, 200) << "fault corpus shrank; widen per_kind";
}

}  // namespace
}  // namespace wrbpg
