#include "robust/robust_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "core/state_bound.h"
#include "ganalysis/bounds.h"
#include "ganalysis/recognition.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/kary_tree.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One link of the fallback chain, described before anything runs so the
// sequential and speculative modes execute the exact same chain.
struct Stage {
  std::string name;
  bool is_exact = false;  // a proven-optimal answer here settles the chain
  bool skipped = false;   // preconditions unmet; engine never started
  std::string skip_detail;
  std::function<ScheduleResult(const CancelToken*)> engine;
};

// One stage's run: the engine's answer, its wall time, and the verdict of
// the single Simulate() call a produced schedule gets. A speculative
// worker verifies its exact-class stage where it ran, so it can decide
// Settles() on its own; the fold reuses that verdict and verifies only
// the runs nobody has yet (heuristic stages, which never settle).
struct StageRun {
  ScheduleResult result;
  SimResult sim;
  bool verified = false;
  double elapsed_ms = 0;
};

StageRun RunStage(const Stage& stage, const CancelToken* cancel) {
  StageRun run;
  const Clock::time_point start = Clock::now();
  run.result = stage.engine(cancel);
  run.elapsed_ms = MsSince(start);
  return run;
}

void Verify(const Graph& graph, Weight budget, StageRun& run) {
  if (run.verified) return;
  run.verified = true;
  if (!run.result.timed_out && run.result.feasible) {
    run.sim = Simulate(graph, budget, run.result.schedule);
  }
}

// The one settle predicate, shared by the fold and the speculative
// workers' cancel trigger: an exact-class stage whose schedule Simulate()
// accepted and whose engine proved it optimal ends the chain. Every later
// stage is then reported kNotRun, whatever it computed.
bool Settles(const Stage& stage, const StageRun& run) {
  return stage.is_exact && !run.result.timed_out && run.result.feasible &&
         run.sim.valid && run.result.termination == Termination::kOptimal;
}

}  // namespace

const char* ToString(StageOutcome outcome) {
  switch (outcome) {
    case StageOutcome::kNotRun: return "not-run";
    case StageOutcome::kSkipped: return "skipped";
    case StageOutcome::kTimedOut: return "timed-out";
    case StageOutcome::kInfeasible: return "infeasible";
    case StageOutcome::kInvalid: return "invalid";
    case StageOutcome::kCandidate: return "candidate";
    case StageOutcome::kWinner: return "winner";
    case StageOutcome::kAnytimeIncumbent: return "anytime-incumbent";
  }
  return "unknown";
}

RobustResult RobustScheduler::Run(Weight budget,
                                  const RobustOptions& options) const {
  const obs::ScopedSpan span("robust.run");
  const Clock::time_point chain_start = Clock::now();
  const bool deadlined = options.deadline_ms > 0;
  const std::size_t threads = ResolveThreadCount(options.threads);

  auto remaining_ms = [&] {
    return options.deadline_ms - MsSince(chain_start);
  };

  // Certified start-state lower bound (ganalysis/bounds.h): the best of
  // the Prop 2.4 algorithmic bound and the budget-aware hold-or-pay
  // certificates. Fed to the exact stage's reported bound and used as the
  // floor of the chain's final lower bound — it subsumes the plain
  // AlgorithmicLowerBound as its base term.
  Weight cert_lb = BestCertifiedBound(graph_, budget);

  // Tighten with the A* heuristic evaluated at the canonical start state
  // (core/state_bound.h): StartBound sees budget-dependent deadness (a
  // needed compute whose Prop 2.3 footprint exceeds the budget) that the
  // ganalysis certificates cannot, so on tight budgets it can beat them.
  // Evaluated once per Run(); the speculative stages all read the folded
  // `cert_lb`. An infinite bound means no valid schedule exists at this
  // budget; the stages will each discover that on their own, and folding
  // infinity into a certificate the bb engine treats as finite would be
  // wrong.
  const Weight start_lb = StartStateBound(graph_, budget);
  if (start_lb < kInfiniteCost) cert_lb = std::max(cert_lb, start_lb);

  std::vector<Stage> stages;

  {
    // Recognition-based routing (DESIGN.md §12): when the graph is a
    // serialized instance of a closed-form family, skip exponential
    // search entirely and answer with the polynomial DP. Recognition is
    // conservative — an unrecognized graph just skips the stage — and a
    // DWT answer is backed by a verified isomorphism onto a reference
    // BuildDwt instance, whose schedule is renamed back through it.
    Stage recog;
    recog.name = "recognition";
    recog.is_exact = true;
    if (dwt_ != nullptr) {
      recog.skipped = true;
      recog.skip_detail =
          "caller already identified the family; the dwt-optimal stage "
          "handles it";
    } else {
      RecognitionResult family = RecognizeFamily(graph_);
      if (!family.recognized()) {
        recog.skipped = true;
        recog.skip_detail = "no closed-form family recognized";
      } else {
        obs::Add(obs::RegisterCounter(std::string("robust.recognized.") +
                                      ToString(family.family)),
                 1);
        if (family.family == GraphFamily::kDwt) {
          recog.engine = [this, budget, family = std::move(family)](
                             const CancelToken* cancel) {
            const DwtGraph ref =
                BuildDwt(family.param0, static_cast<int>(family.param1),
                         family.config);
            ScheduleResult result = DwtOptimalScheduler(ref).Run(budget,
                                                                 cancel);
            if (result.feasible) {
              // Rename the reference schedule back onto our node ids
              // through the inverse of the verified isomorphism.
              std::vector<NodeId> from_reference(graph_.num_nodes(),
                                                 kInvalidNode);
              for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
                from_reference[family.to_reference[v]] = v;
              }
              std::vector<Move> moves = result.schedule.moves();
              for (Move& move : moves) move.node = from_reference[move.node];
              result.schedule = Schedule(std::move(moves));
            }
            return result;
          };
        } else {
          // chain / kary: the in-tree DP runs on the graph directly.
          recog.engine = [this, budget](const CancelToken*) {
            return KaryTreeScheduler(graph_).Run(budget);
          };
        }
      }
    }
    stages.push_back(std::move(recog));
  }

  if (dwt_ != nullptr) {
    // Algorithm 1 is polynomial and proven optimal, so it runs ahead of
    // the exponential search: its answer settles the chain before the
    // exact stage would have to spend its deadline.
    Stage dwt;
    dwt.name = "dwt-optimal";
    dwt.is_exact = true;
    dwt.engine = [this, budget](const CancelToken* cancel) {
      return DwtOptimalScheduler(*dwt_).Run(budget, cancel);
    };
    stages.push_back(std::move(dwt));
  }

  {
    Stage exact;
    exact.name = "exact";
    exact.is_exact = true;
    // The bb engine is anytime: under a deadline it always comes back
    // with an incumbent and a certified gap, so graph size is no reason
    // to skip it. Only an UNBOUNDED run on a big graph is vetoed — there
    // the search would burn through max_states before answering.
    if (graph_.num_nodes() > options.exact_max_nodes && !deadlined) {
      exact.skipped = true;
      exact.skip_detail = "graph has " + std::to_string(graph_.num_nodes()) +
                          " nodes > exact_max_nodes " +
                          std::to_string(options.exact_max_nodes) +
                          " and no deadline bounds the search";
    } else {
      exact.engine = [this, budget, &options, threads,
                      cert_lb](const CancelToken* cancel) {
        BruteForceOptions bf;
        bf.engine = SearchEngine::kBranchAndBound;
        bf.max_states = options.exact_max_states;
        bf.cancel = cancel;
        bf.threads = threads;
        // Certified root bound: tightens the REPORTED gap of an
        // interrupted run; schedules stay bit-identical (brute_force.h).
        bf.root_lower_bound = cert_lb;
        return BruteForceScheduler(graph_).Run(budget, bf);
      };
    }
    stages.push_back(std::move(exact));
  }

  {
    Stage belady;
    belady.name = "belady";
    belady.engine = [this, budget](const CancelToken*) {
      return BeladyScheduler(graph_).Run(budget);
    };
    stages.push_back(std::move(belady));
  }
  {
    Stage greedy;
    greedy.name = "greedy-topo";
    greedy.engine = [this, budget](const CancelToken*) {
      return GreedyTopoScheduler(graph_).Run(budget);
    };
    stages.push_back(std::move(greedy));
  }

  RobustResult out;
  ScheduleResult best;
  std::size_t best_stage = 0;
  // Index of the stage whose proven optimum ended the chain (Settles());
  // stages.size() while the chain is still open.
  std::size_t settled_by = stages.size();
  // Tightest lower bound any completed stage certified (the bb engine
  // reports one even when interrupted); folded into the final result so
  // the chain's optimality_gap is sound no matter which stage won.
  Weight chain_lb = 0;

  // The fold: interprets one stage's run in chain order. Both execution
  // modes funnel through these, so the decision procedure (winner, cost,
  // per-stage outcome) cannot drift between them. A stage whose
  // preconditions are unmet reports kSkipped even after a settle: the
  // skip reason holds whatever settled the chain.
  auto push_not_run = [&](const Stage& stage) {
    StageReport report;
    report.name = stage.name;
    report.detail = "stage " + stages[settled_by].name +
                    " settled the chain with a proven optimum";
    out.stages.push_back(std::move(report));
  };
  auto push_skipped = [&](const Stage& stage, std::string detail) {
    StageReport report;
    report.name = stage.name;
    report.outcome = StageOutcome::kSkipped;
    report.detail = std::move(detail);
    out.stages.push_back(std::move(report));
  };
  auto fold_result = [&](std::size_t index, StageRun run) {
    const Stage& stage = stages[index];
    // Stage timing is measured where the stage ran (possibly on a pool
    // worker in speculative mode) but filed here on the chain's thread,
    // so it lands as a child of the robust.run span either way.
    obs::RecordSpan(std::string("robust.stage.") + stage.name,
                    run.elapsed_ms);
    Verify(graph_, budget, run);
    if (Settles(stage, run)) settled_by = index;
    ScheduleResult& result = run.result;
    StageReport report;
    report.name = stage.name;
    report.elapsed_ms = run.elapsed_ms;
    if (result.timed_out) {
      // The engine was interrupted holding nothing — no incumbent, no
      // schedule. Its frontier lower bound is still certified, though.
      report.outcome = StageOutcome::kTimedOut;
      report.detail =
          "cancelled after " + std::to_string(run.elapsed_ms) + " ms";
      chain_lb = std::max(chain_lb, result.lower_bound);
    } else if (!result.feasible) {
      report.outcome = StageOutcome::kInfeasible;
    } else if (!run.sim.valid) {
      report.outcome = StageOutcome::kInvalid;
      report.detail = "schedule rejected at move " +
                      std::to_string(run.sim.error_index) + ": " +
                      run.sim.error;
    } else {
      report.cost = run.sim.cost;
      result.cost = run.sim.cost;
      chain_lb = std::max(chain_lb, result.lower_bound);
      // An exact-stage result that was interrupted mid-proof is an
      // anytime incumbent: a valid schedule plus a certified gap, but
      // not a proven optimum — the chain keeps running and its outcome
      // label records the weaker claim.
      const bool is_anytime =
          stage.is_exact && result.termination != Termination::kOptimal;
      if (is_anytime) {
        report.detail = "anytime incumbent: lb=" +
                        std::to_string(result.lower_bound) + " gap=" +
                        std::to_string(result.optimality_gap) +
                        " termination=" + ToString(result.termination);
      }
      // A proven optimum that only ties an earlier candidate still
      // settles the chain; the earlier schedule keeps the win.
      if (!best.feasible || run.sim.cost < best.cost) {
        if (best.feasible &&
            out.stages[best_stage].outcome == StageOutcome::kWinner) {
          out.stages[best_stage].outcome = StageOutcome::kCandidate;
        }
        best = std::move(result);
        best_stage = out.stages.size();
        report.outcome = is_anytime ? StageOutcome::kAnytimeIncumbent
                                    : StageOutcome::kWinner;
      } else {
        report.outcome = is_anytime ? StageOutcome::kAnytimeIncumbent
                                    : StageOutcome::kCandidate;
      }
    }
    out.stages.push_back(std::move(report));
  };

  if (threads > 1) {
    // Speculative mode: every runnable stage starts now, so the deadline
    // clock covers the exact search and its fallbacks simultaneously and
    // the exact stages can use the whole deadline instead of a slice.
    // Every exact-class stage holds a CancelToken (deadline-free when no
    // deadline is set). A worker whose stage Settles() cancels every
    // LATER stage — those are kNotRun in the fold no matter what they
    // would have returned — so the chain stops at its first proven
    // optimum instead of waiting out the exact search. Earlier stages are
    // never cancelled, so the fold in chain order reaches the same
    // decision as the sequential chain; with no deadline the outcome is
    // identical to a sequential run.
    struct SpeculativeRun {
      StageRun run;
      CancelToken token;
      std::atomic<bool> started{false};
      std::atomic<bool> done{false};
      std::atomic<bool> cancelled{false};  // by an earlier stage's settle
    };
    static const obs::Counter stages_cancelled("robust.stages_cancelled");
    std::vector<SpeculativeRun> runs(stages.size());
    ThreadPool pool(std::min(threads, stages.size()));
    TaskGroup group(pool);
    // Every token is in place before the first task starts: a settling
    // worker cancels later stages' tokens, possibly before they are
    // submitted.
    if (deadlined) {
      for (std::size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].is_exact) {
          runs[i].token = CancelToken::WithDeadlineMs(remaining_ms());
        }
      }
    }
    for (std::size_t i = 0; i < stages.size(); ++i) {
      if (stages[i].skipped) continue;
      group.Submit([&, i] {
        const Stage& stage = stages[i];
        SpeculativeRun& self = runs[i];
        self.started.store(true);
        // A queued stage an earlier settle already obsoleted never runs.
        if (self.cancelled.load()) return;
        self.run = RunStage(stage, stage.is_exact ? &self.token : nullptr);
        self.done.store(true);
        // Only an exact-class stage can settle, and one a settle already
        // cancelled is discarded by the fold: neither needs the sim here.
        if (!stage.is_exact || self.cancelled.load()) return;
        Verify(graph_, budget, self.run);
        if (!Settles(stage, self.run)) return;
        for (std::size_t j = i + 1; j < stages.size(); ++j) {
          SpeculativeRun& later = runs[j];
          if (stages[j].skipped || later.cancelled.exchange(true)) continue;
          later.token.Cancel();
          // Counted when the settle actually cuts work short: the stage
          // never starts, or it is an exact-class stage polling its token.
          // (Heuristic stages already running finish regardless.)
          if (!later.started.load() ||
              (stages[j].is_exact && !later.done.load())) {
            stages_cancelled.Add(1);
          }
        }
      });
    }
    group.Wait();
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Stage& stage = stages[i];
      if (stage.skipped) {
        push_skipped(stage, stage.skip_detail);
      } else if (settled_by < stages.size()) {
        push_not_run(stage);
      } else {
        fold_result(i, std::move(runs[i].run));
      }
    }
  } else {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Stage& stage = stages[i];
      if (stage.skipped) {
        push_skipped(stage, stage.skip_detail);
        continue;
      }
      if (settled_by < stages.size()) {
        push_not_run(stage);
        continue;
      }
      const CancelToken* cancel = nullptr;
      CancelToken token;
      if (deadlined && stage.is_exact) {
        const double slice = remaining_ms() * options.exact_fraction;
        if (slice <= 0) {
          push_skipped(stage, "deadline already exhausted");
          continue;
        }
        token = CancelToken::WithDeadlineMs(slice);
        cancel = &token;
      }
      fold_result(i, RunStage(stage, cancel));
    }
  }

  static const obs::Counter runs("robust.runs");
  runs.Add(1);
  if (best.feasible) {
    out.result = std::move(best);
    out.winner = out.stages[best_stage].name;
    // Anytime contract: ship the tightest bound any stage certified,
    // floored at the best ganalysis bound certificate (>= the Prop 2.4
    // algorithmic bound, its base term; heuristic winners carry only the
    // trivial 0 on their own). A gap that closes to zero here is a proof
    // of optimality, whichever stage produced the schedule.
    chain_lb = std::max(chain_lb, cert_lb);
    out.result.lower_bound = std::min(out.result.cost, chain_lb);
    out.result.optimality_gap = out.result.cost - out.result.lower_bound;
    if (out.result.optimality_gap == 0) {
      out.result.termination = Termination::kOptimal;
    }
    // Provenance counter: which stage's schedule the chain shipped.
    obs::Add(obs::RegisterCounter("robust.winner." + out.winner), 1);
    if (out.stages[best_stage].outcome == StageOutcome::kAnytimeIncumbent) {
      static const obs::Counter anytime("robust.winner_anytime");
      anytime.Add(1);
    }
  } else {
    static const obs::Counter no_winner("robust.no_winner");
    no_winner.Add(1);
    out.result = ScheduleResult::Infeasible();
    out.result.timed_out = deadlined && remaining_ms() <= 0;
    if (out.result.timed_out) {
      out.result.termination = Termination::kDeadline;
      out.result.lower_bound = chain_lb;
    }
  }
  return out;
}

}  // namespace wrbpg
