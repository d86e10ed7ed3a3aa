// Design-space explorer (src/explore/) contract tests: grid properties,
// the DESIGN.md §8 cross-thread bit-identity promise, tamper rejection
// by the independent frontier verifier, and the Prop 2.4 certificate
// differential against a bb solve of every budget.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/simulator.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/random_dag.h"
#include "explore/explore.h"
#include "explore/report.h"
#include "ganalysis/bounds.h"
#include "hardware/energy_model.h"
#include "hardware/sram_model.h"
#include "robust/robust_scheduler.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

// kary:2,3 explores in ~20 ms at the default max_states; dwt would work
// too but is ~10x slower — the properties are the same.
ExploreResult ExploreKary(std::size_t threads = 1) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  EXPECT_TRUE(built.ok) << built.error;
  ExploreOptions options;
  options.threads = threads;
  return Explore(built.graph(), options);
}

ExplorePoint MakePoint(double area, double leakage, double energy,
                       Weight io_cost) {
  ExplorePoint p;
  p.area_lambda2 = area;
  p.leakage_mw = leakage;
  p.energy_nj = energy;
  p.io_cost = io_cost;
  return p;
}

TEST(ExploreGrid, ProducesNonEmptyCertifiedFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.points.empty());
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_EQ(result.dominated, result.points.size() - result.frontier.size());
  EXPECT_GT(result.budgets_scanned, 0u);

  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  const Weight floor = MinValidBudget(built.graph());
  for (const ExplorePoint& p : result.points) {
    // Every point carries the anytime certificate.
    EXPECT_GE(p.lower_bound, 0);
    EXPECT_GE(p.io_cost, p.lower_bound);
    EXPECT_EQ(p.gap, p.io_cost - p.lower_bound);
    // The band never dips below the Prop 2.3 schedulability floor.
    EXPECT_GE(p.budget, floor);
    // The macro is the power-of-two round-up of the budget.
    EXPECT_EQ(p.capacity_bits, PowerOfTwoCapacity(p.budget));
    // Costs a synthesized macro can produce are non-negative.
    EXPECT_GE(p.area_lambda2, 0);
    EXPECT_GE(p.leakage_mw, 0);
    EXPECT_GE(p.energy_nj, 0);
  }
}

TEST(ExploreGrid, PointsAreBudgetMajorWordMinor) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    const ExplorePoint& a = result.points[i - 1];
    const ExplorePoint& b = result.points[i];
    EXPECT_TRUE(a.budget < b.budget ||
                (a.budget == b.budget && a.word_bits < b.word_bits))
        << "grid order broken at index " << i;
  }
}

TEST(ExploreGrid, EveryPointResynthesizesWithCapacityInvariant) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  for (const ExplorePoint& p : result.points) {
    const SramSynthesisResult synth =
        TrySynthesizeSram(p.capacity_bits, p.word_bits);
    ASSERT_TRUE(synth.ok()) << synth.message;
    EXPECT_GE(synth.macro.physical_bits(), p.capacity_bits);
    EXPECT_EQ(synth.macro.physical_bits(),
              p.capacity_bits + synth.macro.padding_bits);
  }
}

TEST(ExploreDeterminism, BitIdenticalAcrossThreadCounts) {
  const ExploreResult t1 = ExploreKary(1);
  ASSERT_TRUE(t1.ok) << t1.error;
  const std::uint64_t h1 = FrontierHash(t1);
  for (const std::size_t threads : {2u, 8u}) {
    const ExploreResult tn = ExploreKary(threads);
    ASSERT_TRUE(tn.ok) << tn.error;
    EXPECT_EQ(FrontierHash(tn), h1) << "threads=" << threads;
    ASSERT_EQ(tn.points.size(), t1.points.size());
    for (std::size_t i = 0; i < t1.points.size(); ++i) {
      const ExplorePoint& a = t1.points[i];
      const ExplorePoint& b = tn.points[i];
      EXPECT_EQ(a.budget, b.budget);
      EXPECT_EQ(a.io_cost, b.io_cost);
      EXPECT_EQ(a.lower_bound, b.lower_bound);
      EXPECT_EQ(a.gap, b.gap);
      EXPECT_EQ(a.bits_loaded, b.bits_loaded);
      EXPECT_EQ(a.bits_stored, b.bits_stored);
      EXPECT_EQ(a.on_frontier, b.on_frontier);
      // Doubles compare exactly: same inputs, same arithmetic, same bits.
      EXPECT_EQ(a.area_lambda2, b.area_lambda2);
      EXPECT_EQ(a.energy_nj, b.energy_nj);
    }
    EXPECT_EQ(tn.frontier, t1.frontier);
  }
}

TEST(ExploreDominance, DominatesRequiresStrictImprovementSomewhere) {
  const ExplorePoint base = MakePoint(100, 1.0, 5.0, 40);
  EXPECT_FALSE(Dominates(base, base));  // equal on all -> no dominance
  EXPECT_TRUE(Dominates(MakePoint(90, 1.0, 5.0, 40), base));
  EXPECT_TRUE(Dominates(MakePoint(90, 0.5, 4.0, 30), base));
  // Better on one axis, worse on another: incomparable both ways.
  const ExplorePoint trade = MakePoint(90, 1.0, 6.0, 40);
  EXPECT_FALSE(Dominates(trade, base));
  EXPECT_FALSE(Dominates(base, trade));
}

TEST(ExploreDominance, ParetoFrontierKeepsOnlyNonDominated) {
  const std::vector<ExplorePoint> points = {
      MakePoint(100, 1.0, 5.0, 40),  // dominated by 1
      MakePoint(90, 1.0, 5.0, 40),   // frontier
      MakePoint(200, 0.1, 9.0, 80),  // frontier (best leakage)
      MakePoint(90, 1.0, 5.0, 40),   // duplicate of 1: kept (no strict win)
  };
  const std::vector<std::size_t> frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ExploreVerify, AcceptsTheExplorersOwnFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  std::string error;
  EXPECT_TRUE(VerifyFrontier(result.points, result.frontier, &error)) << error;
}

TEST(ExploreVerify, RejectsTamperedResults) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.dominated, 0u);

  // A dominated point smuggled onto the frontier.
  std::size_t dominated_idx = result.points.size();
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (!result.points[i].on_frontier) {
      dominated_idx = i;
      break;
    }
  }
  ASSERT_LT(dominated_idx, result.points.size());
  std::vector<std::size_t> smuggled = result.frontier;
  smuggled.push_back(dominated_idx);
  std::string error;
  EXPECT_FALSE(VerifyFrontier(result.points, smuggled, &error));
  EXPECT_FALSE(error.empty());

  // An optimal point dropped from the frontier.
  std::vector<std::size_t> dropped(result.frontier.begin() + 1,
                                   result.frontier.end());
  error.clear();
  EXPECT_FALSE(VerifyFrontier(result.points, dropped, &error));
  EXPECT_FALSE(error.empty());

  // A flipped on_frontier flag with the index list left intact.
  std::vector<ExplorePoint> flipped = result.points;
  flipped[dominated_idx].on_frontier = true;
  error.clear();
  EXPECT_FALSE(VerifyFrontier(flipped, result.frontier, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ExploreVerify, HashChangesWhenAFrontierPointChanges) {
  ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  const std::uint64_t before = FrontierHash(result);
  result.points[result.frontier.front()].io_cost += 1;
  EXPECT_NE(FrontierHash(result), before);
}

TEST(ExploreOptionsContract, MalformedOptionsFailClosedWithoutAborting) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);

  ExploreOptions bad_step;
  bad_step.budget_step = 0;
  EXPECT_FALSE(Explore(built.graph(), bad_step).ok);

  ExploreOptions no_words;
  no_words.word_bits.clear();
  EXPECT_FALSE(Explore(built.graph(), no_words).ok);

  const Graph empty;
  EXPECT_FALSE(Explore(empty, {}).ok);
}

TEST(ExploreOptionsContract, FiredCancelTokenAbortsExploration) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);
  const CancelToken token;
  token.Cancel();
  ExploreOptions options;
  options.cancel = &token;
  const ExploreResult result = Explore(built.graph(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(ExploreOptionsContract, SchedulerNamesRoundTrip) {
  EXPECT_EQ(ExploreSchedulerFromString("bb"),
            ExploreScheduler::kBranchAndBound);
  EXPECT_EQ(ExploreSchedulerFromString("robust"),
            ExploreScheduler::kRobustChain);
  EXPECT_EQ(ExploreSchedulerFromString("nope"), std::nullopt);
  EXPECT_STREQ(ToString(ExploreScheduler::kBranchAndBound), "bb");
  EXPECT_STREQ(ToString(ExploreScheduler::kRobustChain), "robust");
}

TEST(ExploreOptionsContract, RobustChainAlsoProducesAFrontier) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);
  ExploreOptions options;
  options.scheduler = ExploreScheduler::kRobustChain;
  const ExploreResult result = Explore(built.graph(), options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.frontier.empty());
  std::string error;
  EXPECT_TRUE(VerifyFrontier(result.points, result.frontier, &error)) << error;
}

TEST(ExploreReport, JsonCarriesSchemaAndFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json =
      ExploreToJson("kary:2,3", "bb", result).Dump(2);
  EXPECT_NE(json.find("\"schema\": \"wrbpg-explore-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"frontier_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"on_frontier\""), std::string::npos);
}

// One budget's answer from the scheduler alone, as Explore computed it
// before the Prop 2.4 certificate: a bb solve with exactly the options
// Explore passes (or the robust chain with a single thread).
struct ReferenceRow {
  Weight budget = 0;
  ScheduleResult result;
  Weight bits_loaded = 0;
  Weight bits_stored = 0;
  bool belady_meets_bound = false;  // where the certificate must fire
  bool capped = false;              // bb stopped at max_states
};

std::vector<ReferenceRow> SolveEveryBudget(const Graph& graph,
                                           const ExploreResult& band,
                                           const ExploreOptions& options) {
  const BeladyScheduler belady(graph);
  const Weight floor = AlgorithmicLowerBound(graph);
  std::vector<ReferenceRow> rows;
  for (Weight b = band.budget_lo; b <= band.budget_hi; b += band.budget_step) {
    ReferenceRow row;
    row.budget = b;
    const ScheduleResult heuristic = belady.Run(b);
    row.belady_meets_bound =
        heuristic.feasible && heuristic.cost == floor &&
        Simulate(graph, b, heuristic.schedule).valid;
    if (options.scheduler == ExploreScheduler::kBranchAndBound) {
      SearchStats stats;
      BruteForceOptions bf;
      bf.engine = SearchEngine::kBranchAndBound;
      bf.max_states = options.max_states;
      bf.threads = 1;
      bf.root_lower_bound = BestCertifiedBound(graph, b);
      bf.stats = &stats;
      row.result = BruteForceScheduler(graph).Run(b, bf);
      row.capped = stats.expanded > options.max_states;
    } else {
      RobustOptions ro;
      ro.threads = 1;
      row.result = RobustScheduler(graph).Run(b, ro).result;
    }
    for (const Move& move : row.result.schedule) {
      if (move.type == MoveType::kLoad) row.bits_loaded += graph.weight(move.node);
      if (move.type == MoveType::kStore) row.bits_stored += graph.weight(move.node);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// What a corpus run exercised: budgets the certificate priced, and the
// ones among them whose reference bb solve stopped at the state cap.
struct Tally {
  std::size_t certified = 0;
  std::size_t capped_certified = 0;
};

// Explores `graph` at 1 and 4 threads and checks every field of every
// point against the per-budget reference; bb answers must match exactly.
void ExpectMatchesReference(const Graph& graph, const std::string& name,
                            ExploreOptions options, Tally* tally) {
  const Weight floor = AlgorithmicLowerBound(graph);
  const bool bb = options.scheduler == ExploreScheduler::kBranchAndBound;
  std::vector<ReferenceRow> reference;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                 " max_states=" + std::to_string(options.max_states));
    options.threads = threads;
    const ExploreResult result = Explore(graph, options);
    EXPECT_TRUE(result.ok) << result.error;
    if (!result.ok) return;
    if (reference.empty()) {
      reference = SolveEveryBudget(graph, result, options);
      for (const ReferenceRow& row : reference) {
        tally->certified += row.belady_meets_bound;
        tally->capped_certified += row.capped && row.belady_meets_bound;
      }
    }
    ASSERT_EQ(result.budgets_scanned, reference.size());

    std::size_t certified = 0;
    std::size_t next = 0;
    for (const ReferenceRow& ref : reference) {
      certified += ref.belady_meets_bound;
      if (!ref.result.feasible) continue;  // no points, as before
      const Weight capacity = PowerOfTwoCapacity(ref.budget);
      for (const Weight word : options.word_bits) {
        const SramSynthesisResult synth = TrySynthesizeSram(capacity, word);
        if (!synth.ok()) continue;
        ASSERT_LT(next, result.points.size());
        const ExplorePoint& p = result.points[next++];
        SCOPED_TRACE("budget=" + std::to_string(ref.budget) +
                     " word=" + std::to_string(word));
        EXPECT_EQ(p.budget, ref.budget);
        EXPECT_EQ(p.capacity_bits, capacity);
        EXPECT_EQ(p.word_bits, word);
        EXPECT_EQ(p.area_lambda2, synth.macro.area_lambda2);
        EXPECT_EQ(p.leakage_mw, synth.macro.leakage_mw);
        if (ref.belady_meets_bound) {
          // Priced by the certificate: proven optimal, forced traffic.
          EXPECT_EQ(p.io_cost, floor);
          EXPECT_EQ(p.lower_bound, floor);
          EXPECT_EQ(p.gap, 0);
          EXPECT_EQ(p.termination, Termination::kOptimal);
        }
        if (!bb && ref.belady_meets_bound) {
          // The robust chain's answer can only have tightened.
          EXPECT_LE(p.io_cost, ref.result.cost);
          continue;
        }
        const EnergyReport energy = EstimateScheduleEnergy(
            synth.macro, ref.bits_loaded, ref.bits_stored, options.duty_cycle);
        EXPECT_EQ(p.io_cost, ref.result.cost);
        EXPECT_EQ(p.lower_bound, ref.result.lower_bound);
        EXPECT_EQ(p.gap, ref.result.optimality_gap);
        EXPECT_EQ(p.termination, ref.result.termination);
        EXPECT_EQ(p.bits_loaded, ref.bits_loaded);
        EXPECT_EQ(p.bits_stored, ref.bits_stored);
        EXPECT_EQ(p.energy_nj, energy.total_energy_nj);
      }
    }
    EXPECT_EQ(next, result.points.size());
    // The certificate fires exactly where Belady meets Prop 2.4.
    EXPECT_EQ(result.budgets_certified, certified);
  }
}

std::vector<std::pair<std::string, Graph>> DifferentialCorpus() {
  std::vector<std::pair<std::string, Graph>> corpus;
  for (const char* spec : {"kary:2,3", "butterfly:4", "random:3,5,13"}) {
    BuiltinGraph built = BuildBuiltinGraph(spec);
    EXPECT_TRUE(built.ok) << built.error;
    corpus.emplace_back(spec, built.graph());
  }
  Rng rng(2026);
  RandomDagOptions dag;
  dag.num_layers = 3;
  dag.nodes_per_layer = 3;
  dag.max_in_degree = 2;
  for (int instance = 0; instance < 4; ++instance) {
    corpus.emplace_back("random-dag#" + std::to_string(instance),
                        BuildRandomDag(rng, dag));
  }
  return corpus;
}

ExploreOptions DifferentialOptions(const std::string& name) {
  ExploreOptions options;
  // The random DAGs weigh 1-8 bits per node; a finer step gives them a
  // band of more than a couple of budgets.
  if (name.rfind("random-dag", 0) == 0) options.budget_step = 2;
  return options;
}

TEST(ExploreCertificate, EveryPointMatchesAPerBudgetBbSolve) {
  Tally tally;
  for (const auto& [name, graph] : DifferentialCorpus()) {
    ExpectMatchesReference(graph, name, DifferentialOptions(name), &tally);
  }
  EXPECT_GT(tally.certified, 0u);
}

TEST(ExploreCertificate, MatchesCappedBbThatReturnsItsIncumbent) {
  // A tiny state cap sends the reference down the anytime path: it stops
  // early and hands back the Belady incumbent, certified by its bounds.
  Tally tally;
  for (const auto& [name, graph] : DifferentialCorpus()) {
    ExploreOptions options = DifferentialOptions(name);
    options.max_states = 8;
    ExpectMatchesReference(graph, name, options, &tally);
  }
  EXPECT_GT(tally.capped_certified, 0u);
}

TEST(ExploreCertificate, RobustChainPointsThereAreProvenOptimal) {
  for (const char* spec : {"kary:2,3", "butterfly:4"}) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    ASSERT_TRUE(built.ok) << built.error;
    ExploreOptions options;
    options.scheduler = ExploreScheduler::kRobustChain;
    Tally tally;
    ExpectMatchesReference(built.graph(), spec, options, &tally);
    EXPECT_GT(tally.certified, 0u) << spec;
  }
}

}  // namespace
}  // namespace wrbpg
