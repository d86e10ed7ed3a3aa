// solve-cold: one client sends distinct, unrecognized 14-22-node graphs
// through ScheduleService::Serve with no deadline and nproc solver
// threads, so the packed-state exact search does nearly all the work and
// the service only runs its miss-and-insert path.
//
// The instances and their optimal costs live in solve_cold.txt (written by
// --generate solve-cold with the dijkstra h=0 oracle). The seed picks a
// node relabeling of every instance and the order they are sent in; the
// cache is cleared between passes, so every request is a cold solve.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "core/analysis.h"
#include "core/binio.h"
#include "core/simulator.h"
#include "ganalysis/recognition.h"
#include "schedulers/brute_force.h"
#include "service/service.h"
#include "util/cancel.h"

namespace perfbench {
namespace {

using wrbpg::ScheduleService;

struct Instance {
  std::string spec;
  Weight budget = 0;
  Weight optimal = 0;
};

struct Request {
  std::size_t instance = 0;
  Graph graph;  // the relabeled graph, for the checks
  std::string bytes;
};

struct Answer {
  std::size_t request = 0;
  bool ok = false;
  bool cold = false;
  Weight cost = 0;
  Weight lower_bound = 0;
  std::string reply;
};

std::size_t SolverThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

wrbpg::ServiceOptions ColdOptions() {
  wrbpg::ServiceOptions options;
  options.robust.threads = SolverThreads();
  return options;
}

std::string InstancesPath(const std::string& data_dir) {
  return data_dir + "/solve_cold.txt";
}

class SolveCold final : public Workload {
 public:
  explicit SolveCold(std::vector<Instance> instances)
      : instances_(std::move(instances)) {}

  void Setup(std::uint64_t seed) override {
    wrbpg::Rng rng(seed ^ 0xc01dULL);
    requests_.clear();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Request r;
      r.instance = i;
      r.graph = Relabel(BuildSpec(instances_[i].spec), rng);
      r.bytes = wrbpg::ToBinary(r.graph);
      requests_.push_back(std::move(r));
    }
    Shuffle(requests_, rng);
    service_ = std::make_unique<ScheduleService>(ColdOptions());
  }

  std::uint64_t StreamHash() const override {
    std::uint64_t hash = kFnvBasis;
    for (const Request& r : requests_) {
      hash = Fnv1a(hash, r.bytes);
      hash = Fnv1a(hash,
                   static_cast<std::uint64_t>(instances_[r.instance].budget));
    }
    return hash;
  }

  // Whole passes over the request list until `seconds` have elapsed, so
  // every instance weighs the same in the rates.
  Phase Measure(double seconds, bool /*traced*/) override {
    Phase phase;
    answers_.clear();
    LayerTime decode, serve, encode;
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point pass_start = Clock::now();
      service_->ClearCache();
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        const Request& r = requests_[i];
        const Clock::time_point t0 = Clock::now();
        const wrbpg::GraphParseResult parsed = wrbpg::ParseGraphBinary(r.bytes);
        const Clock::time_point t1 = Clock::now();
        wrbpg::ServiceRequest request;
        request.graph = &parsed.graph;
        request.budget = instances_[r.instance].budget;
        const wrbpg::ServiceResponse response = service_->Serve(request);
        const Clock::time_point t2 = Clock::now();
        std::string reply = wrbpg::ToBinary(response.result.schedule);
        const Clock::time_point t3 = Clock::now();
        decode.Add(NsBetween(t0, t1));
        serve.Add(NsBetween(t1, t2));
        encode.Add(NsBetween(t2, t3));
        phase.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(t3 - t0).count());
        answers_.push_back(Answer{
            i, response.ok, response.source == wrbpg::ServeSource::kSolved,
            response.result.cost, response.result.lower_bound,
            std::move(reply)});
      }
      phase.EndPass(requests_.size(), pass_start);
    } while (SecondsSince(begin) < seconds);
    phase.wall_s = SecondsSince(begin);
    phase.calls = phase.latency_ms.size();
    phase.layers = {{"core.decode", decode},
                    {"top.serve", serve},
                    {"core.encode", encode}};
    return phase;
  }

  Answers Check() override {
    Answers answers;
    for (const Answer& a : answers_) {
      const Request& r = requests_[a.request];
      const Instance& inst = instances_[r.instance];
      const std::string where = "solve-cold " + inst.spec + "@" +
                                std::to_string(inst.budget);
      if (!a.ok) {
        answers.Fail(where + ": service answered not-ok");
        continue;
      }
      const auto parsed = wrbpg::ParseScheduleBinary(a.reply);
      const wrbpg::SimResult sim =
          parsed.ok ? wrbpg::Simulate(r.graph, inst.budget, parsed.schedule)
                    : wrbpg::SimResult{};
      if (!sim.valid) {
        answers.Fail(where + ": reply fails re-simulation: " +
                     (parsed.ok ? sim.error : parsed.error));
      } else if (sim.cost != a.cost || a.lower_bound > a.cost) {
        answers.Fail(where + ": reported cost/bound inconsistent with "
                     "re-simulation");
      } else if (a.cost != inst.optimal) {
        answers.Fail(where + ": cost " + std::to_string(a.cost) +
                     " != expected optimum " + std::to_string(inst.optimal));
      } else if (!a.cold) {
        answers.Fail(where + ": served from cache, not solved cold");
      } else {
        answers.Grade(a.cost, a.lower_bound);
      }
    }
    return answers;
  }

  Metrics LayerMetrics(const Phase&, const Answers&) override {
    const wrbpg::ServiceStats stats = service_->stats();
    Metrics m;
    m["service.hit_ratio"] = {
        Ratio(static_cast<double>(stats.cache_hits + stats.iso_hits),
              static_cast<double>(stats.requests)),
        "ratio"};
    m["service.iso_hit_ratio"] = {Ratio(static_cast<double>(stats.iso_hits),
                                        static_cast<double>(stats.requests)),
                                  "ratio"};
    m["service.evictions"] = {static_cast<double>(stats.cache_evictions),
                              "count"};
    return m;
  }

 private:
  std::vector<Instance> instances_;
  std::vector<Request> requests_;
  std::unique_ptr<ScheduleService> service_;
  std::vector<Answer> answers_;
};

}  // namespace

std::unique_ptr<Workload> MakeSolveCold(const std::string& data_dir) {
  std::string error;
  const auto records = ReadRecords(InstancesPath(data_dir), &error);
  std::vector<Instance> instances;
  for (const auto& rec : records) {
    if (rec.size() != 3) {
      error = "malformed record in " + InstancesPath(data_dir);
      break;
    }
    instances.push_back(
        Instance{rec[0], std::stoll(rec[1]), std::stoll(rec[2])});
  }
  if (!error.empty()) {
    std::cerr << "perfbench: " << error << "\n";
    return nullptr;
  }
  return std::make_unique<SolveCold>(std::move(instances));
}

// Candidate instances are screened for: 14-22 nodes, no recognized
// family, a distinct cache key, and a workload solve of 5-300 ms on the
// generating machine. The kept ones are solved again by the dijkstra
// (h=0) oracle, whose cost becomes the expected answer.
bool GenerateSolveCold(const std::string& data_dir) {
  constexpr std::size_t kTarget = 40;
  std::vector<std::string> specs;
  const std::pair<int, int> shapes[] = {{4, 4}, {3, 5}, {5, 3}, {4, 5},
                                        {5, 4}, {3, 6}, {6, 3}, {3, 7},
                                        {7, 3}, {2, 8}};
  for (int seed = 1; seed <= 40; ++seed) {
    for (const auto& [layers, width] : shapes) {
      specs.push_back("random:" + std::to_string(layers) + "," +
                      std::to_string(width) + "," +
                      std::to_string(seed * 97 + layers * 7 + width));
    }
    if (seed <= 4) {
      specs.push_back("mvm:2," + std::to_string(seed + 1));
      specs.push_back("mvm:" + std::to_string(seed + 1) + ",2");
      specs.push_back("butterfly:4");
    }
  }
  std::ofstream out(InstancesPath(data_dir));
  if (!out) {
    std::cerr << "perfbench: cannot write " << InstancesPath(data_dir) << "\n";
    return false;
  }
  out << "# solve-cold instances: <spec> <budget> <optimal cost>\n"
         "# Written by `wrbpg_perfbench --generate solve-cold`; optimal costs\n"
         "# come from the dijkstra (h=0) exact search.\n";
  std::vector<std::uint64_t> keys;
  std::size_t kept = 0;
  for (const std::string& spec : specs) {
    if (kept >= kTarget) break;
    const Graph graph = BuildSpec(spec);
    if (graph.num_nodes() < 14 || graph.num_nodes() > 22) continue;
    if (wrbpg::RecognizeFamily(graph).recognized()) continue;
    const Weight lo = wrbpg::MinValidBudget(graph);
    const Weight step = spec.rfind("random:", 0) == 0 ? 2 : 16;
    for (const Weight slack : {Weight{1}, Weight{3}}) {
      const Weight budget = lo + slack * step;
      const std::uint64_t key = ScheduleService::DeriveKey(graph, budget);
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
      ScheduleService service(ColdOptions());
      wrbpg::ServiceRequest request;
      request.graph = &graph;
      request.budget = budget;
      const Clock::time_point start = Clock::now();
      const wrbpg::ServiceResponse response = service.Serve(request);
      const double ms = SecondsSince(start) * 1e3;
      if (!response.ok || response.result.optimality_gap != 0 || ms < 5 ||
          ms > 300) {
        continue;
      }
      wrbpg::BruteForceOptions oracle;
      oracle.engine = wrbpg::SearchEngine::kDijkstra;
      oracle.threads = SolverThreads();
      oracle.frontier_bytes_cap = 1ull << 30;
      const wrbpg::CancelToken cancel =
          wrbpg::CancelToken::WithDeadlineMs(20000);
      oracle.cancel = &cancel;
      const Clock::time_point oracle_start = Clock::now();
      const wrbpg::ScheduleResult exact =
          wrbpg::BruteForceScheduler(graph).Run(budget, oracle);
      std::cerr << "  " << spec << "@" << budget << " serve_ms=" << ms
                << " oracle_s=" << SecondsSince(oracle_start) << "\n";
      if (!exact.feasible ||
          exact.termination != wrbpg::Termination::kOptimal) {
        continue;
      }
      if (exact.cost != response.result.cost) {
        std::cerr << "perfbench: " << spec << "@" << budget << ": service "
                  << response.result.cost << " != oracle " << exact.cost
                  << "\n";
        return false;
      }
      keys.push_back(key);
      out << spec << " " << budget << " " << exact.cost << std::endl;
      std::cerr << spec << "@" << budget << " nodes=" << graph.num_nodes()
                << " cost=" << exact.cost << " serve_ms=" << ms << "\n";
      if (++kept >= kTarget) break;
    }
  }
  std::cerr << "kept " << kept << " instances\n";
  return kept > 0;
}

}  // namespace perfbench
