// solve-deadline: one client calls RobustScheduler::Run the way
// `wrbpg_cli schedule --deadline-ms` does — a DwtGraph for dwt specs, a
// bare Graph otherwise — with a fixed 100 ms deadline and nproc threads.
//
// The graphs are wide (more than 32 nodes, so the exact stage runs on the
// interned wide state) and mostly unrecognized; about a quarter are
// recognizable kary/dwt instances, whose optimal costs the DPs give and
// solve_deadline.txt records. Those keep the speculative chain's wait for
// the exact stage visible as robust.overhang_ms. Non-dwt graphs arrive as
// seeded relabelings in wrbpg-bin-v1 bytes; dwt graphs are built from
// their spec on the timed path, as the CLI builds them. The seed also
// picks the order.
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/analysis.h"
#include "core/binio.h"
#include "core/simulator.h"
#include "dataflows/builtin_spec.h"
#include "ganalysis/bounds.h"
#include "ganalysis/recognition.h"
#include "robust/robust_scheduler.h"

namespace perfbench {
namespace {

constexpr double kDeadlineMs = 100;

// (spec, budget offset over MinValidBudget). Random graphs weigh 1-8
// bits per node, the dataflow families 16.
struct Entry {
  const char* spec;
  Weight offset;
};
constexpr Entry kEntries[] = {
    {"random:6,8,11", 12},  {"random:6,8,12", 16},  {"random:6,8,13", 20},
    {"random:7,9,21", 12},  {"random:7,9,22", 16},  {"random:8,10,31", 12},
    {"random:8,10,32", 16}, {"mvm:4,4", 32},        {"butterfly:8", 32},
    {"butterfly:16", 32},   {"kary:2,5", 16},       {"kary:3,3", 0},
    {"dwt:16,2", 0},        {"dwt:32,2", 16},
};

struct Request {
  std::size_t entry = 0;
  Weight budget = 0;
  std::string bytes;  // empty for dwt specs, built on the timed path
  Graph graph;        // the graph as the scheduler sees it, for checks
};

struct Answer {
  std::size_t request = 0;
  wrbpg::RobustResult robust;
  std::string reply;
  double wall_ms = 0;
};

bool IsDwt(std::string_view spec) { return spec.rfind("dwt:", 0) == 0; }

std::string ExpectedPath(const std::string& data_dir) {
  return data_dir + "/solve_deadline.txt";
}

wrbpg::RobustOptions DeadlineOptions() {
  wrbpg::RobustOptions options;
  options.deadline_ms = kDeadlineMs;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

class SolveDeadline final : public Workload {
 public:
  // `optimal[i]` is the known optimum of entry i, or nullopt.
  explicit SolveDeadline(std::vector<std::optional<Weight>> optimal)
      : optimal_(std::move(optimal)) {}

  void Setup(std::uint64_t seed) override {
    wrbpg::Rng rng(seed ^ 0xdead11eULL);
    requests_.clear();
    for (std::size_t e = 0; e < std::size(kEntries); ++e) {
      const Graph graph = BuildSpec(kEntries[e].spec);
      Request r;
      r.entry = e;
      r.budget = wrbpg::MinValidBudget(graph) + kEntries[e].offset;
      if (IsDwt(kEntries[e].spec)) {
        r.graph = graph;
      } else {
        r.graph = Relabel(graph, rng);
        r.bytes = wrbpg::ToBinary(r.graph);
      }
      requests_.push_back(std::move(r));
    }
    Shuffle(requests_, rng);
  }

  std::uint64_t StreamHash() const override {
    std::uint64_t hash = kFnvBasis;
    for (const Request& r : requests_) {
      hash = Fnv1a(hash, r.bytes.empty()
                             ? std::string_view(kEntries[r.entry].spec)
                             : std::string_view(r.bytes));
      hash = Fnv1a(hash, static_cast<std::uint64_t>(r.budget));
    }
    return hash;
  }

  Phase Measure(double seconds, bool traced) override {
    Phase phase;
    answers_.clear();
    LayerTime decode, build, recognize, run, encode;
    const wrbpg::RobustOptions options = DeadlineOptions();
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point pass_start = Clock::now();
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        const Request& r = requests_[i];
        Answer answer;
        answer.request = i;
        // t0..t1 builds or decodes the input, t2..t3 runs the chain, t3..t4
        // encodes the reply; a traced probe sits between t1 and t2.
        const Clock::time_point t0 = Clock::now();
        Clock::time_point t1;
        Clock::time_point t2;
        if (r.bytes.empty()) {
          const wrbpg::BuiltinGraph built =
              wrbpg::BuildBuiltinGraph(kEntries[r.entry].spec);
          t1 = t2 = Clock::now();
          build.Add(NsBetween(t0, t1));
          answer.robust =
              wrbpg::RobustScheduler(*built.dwt).Run(r.budget, options);
        } else {
          const wrbpg::GraphParseResult parsed =
              wrbpg::ParseGraphBinary(r.bytes);
          t1 = Clock::now();
          decode.Add(NsBetween(t0, t1));
          if (traced) {
            // Probe: the family recognition the chain runs first.
            (void)wrbpg::RecognizeFamily(parsed.graph);
          }
          t2 = Clock::now();
          if (traced) recognize.Add(NsBetween(t1, t2));
          answer.robust =
              wrbpg::RobustScheduler(parsed.graph).Run(r.budget, options);
        }
        const Clock::time_point t3 = Clock::now();
        answer.reply = wrbpg::ToBinary(answer.robust.result.schedule);
        const Clock::time_point t4 = Clock::now();
        run.Add(NsBetween(t2, t3));
        encode.Add(NsBetween(t3, t4));
        answer.wall_ms =
            std::chrono::duration<double, std::milli>(t3 - t2).count();
        phase.latency_ms.push_back(
            std::chrono::duration<double, std::milli>((t1 - t0) + (t4 - t2))
                .count());
        answers_.push_back(std::move(answer));
      }
      phase.EndPass(requests_.size(), pass_start);
    } while (SecondsSince(begin) < seconds);
    phase.wall_s = SecondsSince(begin);
    phase.calls = phase.latency_ms.size();
    phase.layers = {{"core.decode", decode},
                    {"dataflows.build", build},
                    {"ganalysis.recognize", recognize},
                    {"top.run", run},
                    {"core.encode", encode}};
    return phase;
  }

  Answers Check() override {
    Answers answers;
    cert_lb_sum_ = 0;
    overhang_ms_.clear();
    for (const Answer& a : answers_) {
      const Request& r = requests_[a.request];
      const wrbpg::ScheduleResult& result = a.robust.result;
      const std::string where = std::string("solve-deadline ") +
                                kEntries[r.entry].spec + "@" +
                                std::to_string(r.budget);
      if (!result.feasible) {
        answers.Fail(where + ": no schedule");
        continue;
      }
      const auto parsed = wrbpg::ParseScheduleBinary(a.reply);
      const wrbpg::SimResult sim =
          parsed.ok ? wrbpg::Simulate(r.graph, r.budget, parsed.schedule)
                    : wrbpg::SimResult{};
      const std::optional<Weight>& optimum = optimal_[r.entry];
      if (!sim.valid) {
        answers.Fail(where + ": reply fails re-simulation: " +
                     (parsed.ok ? sim.error : parsed.error));
      } else if (sim.cost != result.cost || result.lower_bound > result.cost) {
        answers.Fail(where + ": reported cost/bound inconsistent with "
                     "re-simulation");
      } else if (optimum && result.cost != *optimum) {
        answers.Fail(where + ": cost " + std::to_string(result.cost) +
                     " != the DP optimum " + std::to_string(*optimum));
      } else {
        answers.Grade(result.cost, result.lower_bound);
        cert_lb_sum_ += static_cast<double>(
            wrbpg::BestCertifiedBound(r.graph, r.budget));
        if (const wrbpg::StageReport* winner =
                a.robust.stage(a.robust.winner)) {
          overhang_ms_.push_back(a.wall_ms - winner->elapsed_ms);
        }
      }
    }
    return answers;
  }

  Metrics LayerMetrics(const Phase&, const Answers& answers) override {
    double overhang = 0;
    for (const double ms : overhang_ms_) overhang += ms;
    Metrics m;
    m["robust.overhang_ms"] = {
        Ratio(overhang, static_cast<double>(overhang_ms_.size())), "ms"};
    m["ganalysis.cert_lb_ratio"] = {Ratio(cert_lb_sum_, answers.sum_cost),
                                    "ratio"};
    return m;
  }

 private:
  std::vector<std::optional<Weight>> optimal_;
  std::vector<Request> requests_;
  std::vector<Answer> answers_;
  double cert_lb_sum_ = 0;
  std::vector<double> overhang_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeSolveDeadline(const std::string& data_dir) {
  std::string error;
  const auto records = ReadRecords(ExpectedPath(data_dir), &error);
  std::vector<std::optional<Weight>> optimal(std::size(kEntries));
  for (const auto& rec : records) {
    std::size_t e = 0;
    while (e < std::size(kEntries) && rec[0] != kEntries[e].spec) ++e;
    if (rec.size() != 3 || e == std::size(kEntries) ||
        std::stoll(rec[1]) != kEntries[e].offset) {
      error = "record does not match the workload's entries in " +
              ExpectedPath(data_dir);
      break;
    }
    optimal[e] = std::stoll(rec[2]);
  }
  if (!error.empty()) {
    std::cerr << "perfbench: " << error << "\n";
    return nullptr;
  }
  return std::make_unique<SolveDeadline>(std::move(optimal));
}

// The recognizable entries' optima, from the closed-form DPs the robust
// chain routes them to, run without a deadline on one thread.
bool GenerateSolveDeadline(const std::string& data_dir) {
  std::ofstream out(ExpectedPath(data_dir));
  if (!out) {
    std::cerr << "perfbench: cannot write " << ExpectedPath(data_dir) << "\n";
    return false;
  }
  out << "# solve-deadline known optima: <spec> <budget offset> "
         "<optimal cost>\n"
         "# Written by `wrbpg_perfbench --generate solve-deadline` from the\n"
         "# recognition / dwt-optimal DPs.\n";
  wrbpg::RobustOptions options;
  options.threads = 1;
  for (const Entry& e : kEntries) {
    const wrbpg::BuiltinGraph built = wrbpg::BuildBuiltinGraph(e.spec);
    const Graph& graph = built.graph();
    if (!IsDwt(e.spec) && !wrbpg::RecognizeFamily(graph).recognized()) continue;
    const Weight budget = wrbpg::MinValidBudget(graph) + e.offset;
    const wrbpg::RobustResult solved =
        IsDwt(e.spec) ? wrbpg::RobustScheduler(*built.dwt).Run(budget, options)
                      : wrbpg::RobustScheduler(graph).Run(budget, options);
    if (!solved.result.feasible || solved.result.optimality_gap != 0) {
      std::cerr << "perfbench: " << e.spec << " not solved optimally\n";
      return false;
    }
    out << e.spec << " " << e.offset << " " << solved.result.cost << "\n";
    std::cerr << e.spec << "@" << budget << " optimum " << solved.result.cost
              << " via " << solved.winner << "\n";
  }
  return true;
}

}  // namespace perfbench
