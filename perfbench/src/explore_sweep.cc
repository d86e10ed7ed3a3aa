// explore-sweep: one caller runs Explore() with its defaults (bb engine,
// max_states 200k, derived band, words 8/16/32) at nproc threads over a
// fixed set of graphs, received as wrbpg-bin-v1 bytes. The results are
// deterministic, so each graph's FrontierHash is pinned in
// explore_sweep.txt; the seed only picks the sweep order.
//
// mvm:2,4 and dwt:8,2 stay in the set on purpose: their io_cost is not
// monotone in the budget under the state cap, which
// explore.nonmonotone_points keeps visible.
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench.h"
#include "core/binio.h"
#include "explore/explore.h"
#include "hardware/energy_model.h"
#include "hardware/sram_model.h"

namespace perfbench {
namespace {

constexpr const char* kGraphs[] = {
    "dwt:8,2",       "kary:2,3",       "mvm:2,4",
    "random:3,5,13", "random:4,4,11",  "butterfly:4",
};

struct Request {
  std::size_t graph = 0;
  std::string bytes;
};

struct Answer {
  std::size_t request = 0;
  wrbpg::ExploreResult result;
};

std::string ExpectedPath(const std::string& data_dir) {
  return data_dir + "/explore_sweep.txt";
}

wrbpg::ExploreOptions SweepOptions() {
  wrbpg::ExploreOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Points whose io_cost exceeds that of a smaller budget at the same word
// width: more memory bought a worse answer.
std::uint64_t NonMonotonePoints(const wrbpg::ExploreResult& result) {
  std::map<Weight, Weight> best_below;  // word -> min io_cost so far
  std::uint64_t count = 0;
  for (const wrbpg::ExplorePoint& p : result.points) {  // budget-major
    const auto it = best_below.find(p.word_bits);
    if (it == best_below.end()) {
      best_below[p.word_bits] = p.io_cost;
      continue;
    }
    if (p.io_cost > it->second) ++count;
    it->second = std::min(it->second, p.io_cost);
  }
  return count;
}

class ExploreSweep final : public Workload {
 public:
  explicit ExploreSweep(std::vector<std::uint64_t> expected_hash)
      : expected_hash_(std::move(expected_hash)) {}

  void Setup(std::uint64_t seed) override {
    wrbpg::Rng rng(seed ^ 0xe4910eULL);
    requests_.clear();
    for (std::size_t g = 0; g < std::size(kGraphs); ++g) {
      requests_.push_back(Request{g, wrbpg::ToBinary(BuildSpec(kGraphs[g]))});
    }
    Shuffle(requests_, rng);
  }

  std::uint64_t StreamHash() const override {
    std::uint64_t hash = kFnvBasis;
    for (const Request& r : requests_) hash = Fnv1a(hash, r.bytes);
    return hash;
  }

  Phase Measure(double seconds, bool /*traced*/) override {
    Phase phase;
    answers_.clear();
    LayerTime decode, explore;
    const wrbpg::ExploreOptions options = SweepOptions();
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point pass_start = Clock::now();
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const wrbpg::GraphParseResult parsed =
            wrbpg::ParseGraphBinary(requests_[i].bytes);
        const Clock::time_point t1 = Clock::now();
        wrbpg::ExploreResult result = wrbpg::Explore(parsed.graph, options);
        const Clock::time_point t2 = Clock::now();
        decode.Add(NsBetween(t0, t1));
        explore.Add(NsBetween(t1, t2));
        phase.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(t2 - t0).count());
        answers_.push_back(Answer{i, std::move(result)});
      }
      phase.EndPass(requests_.size(), pass_start);
    } while (SecondsSince(begin) < seconds);
    phase.wall_s = SecondsSince(begin);
    phase.calls = phase.latency_ms.size();
    phase.layers = {{"core.decode", decode}, {"top.explore", explore}};
    return phase;
  }

  // Every point is an answer: lower_bound <= io_cost with the gap
  // consistent, its SRAM price re-derived bit for bit (timed as the
  // hardware layer), the frontier re-verified, and the frontier hash
  // equal to the pinned one.
  Answers Check() override {
    Answers answers;
    synth_ = energy_ = LayerTime{};
    nonmonotone_ = 0;
    for (const Answer& a : answers_) {
      const std::size_t g = requests_[a.request].graph;
      const wrbpg::ExploreResult& r = a.result;
      const std::string where = std::string("explore-sweep ") + kGraphs[g];
      std::string error;
      if (!r.ok) {
        answers.Fail(where + ": " + r.error);
        continue;
      }
      if (!wrbpg::VerifyFrontier(r.points, r.frontier, &error)) {
        answers.Fail(where + ": frontier rejected: " + error);
        continue;
      }
      if (wrbpg::FrontierHash(r) != expected_hash_[g]) {
        answers.Fail(where + ": frontier hash differs from the pinned one");
        continue;
      }
      bool points_ok = true;
      for (const wrbpg::ExplorePoint& p : r.points) {
        const Clock::time_point t0 = Clock::now();
        const wrbpg::SramSynthesisResult synth =
            wrbpg::TrySynthesizeSram(p.capacity_bits, p.word_bits);
        const Clock::time_point t1 = Clock::now();
        const wrbpg::EnergyReport energy = wrbpg::EstimateScheduleEnergy(
            synth.macro, p.bits_loaded, p.bits_stored);
        const Clock::time_point t2 = Clock::now();
        synth_.Add(NsBetween(t0, t1));
        energy_.Add(NsBetween(t1, t2));
        points_ok = points_ok && synth.ok() && p.lower_bound <= p.io_cost &&
                    p.gap == p.io_cost - p.lower_bound &&
                    SameBits(p.area_lambda2, synth.macro.area_lambda2) &&
                    SameBits(p.leakage_mw, synth.macro.leakage_mw) &&
                    SameBits(p.energy_nj, energy.total_energy_nj);
      }
      if (!points_ok) {
        answers.Fail(where + ": a point's certificate or price is wrong");
        continue;
      }
      for (const wrbpg::ExplorePoint& p : r.points) {
        answers.Grade(p.io_cost, p.lower_bound);
      }
      nonmonotone_ += NonMonotonePoints(r);
    }
    return answers;
  }

  Metrics LayerMetrics(const Phase& phase, const Answers&) override {
    Metrics m;
    m["hardware.synth_us"] = {synth_.MeanUs(), "us"};
    m["hardware.energy_us"] = {energy_.MeanUs(), "us"};
    // Per sweep of the whole graph set.
    m["explore.nonmonotone_points"] = {
        Ratio(static_cast<double>(nonmonotone_) *
                  static_cast<double>(std::size(kGraphs)),
              static_cast<double>(phase.calls)),
        "count"};
    const SpanTotal solve =
        FindSpan(wrbpg::obs::SnapshotSpans(), "explore.solve");
    const auto it = phase.layers.find("top.explore");
    const double explore_ms =
        it == phase.layers.end() ? 0 : it->second.TotalMs();
    m["explore.pool_efficiency"] = {
        Ratio(solve.total_ms,
              static_cast<double>(SweepOptions().threads) * explore_ms),
        "ratio"};
    return m;
  }

 private:
  std::vector<std::uint64_t> expected_hash_;
  std::vector<Request> requests_;
  std::vector<Answer> answers_;
  LayerTime synth_, energy_;
  std::uint64_t nonmonotone_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeExploreSweep(const std::string& data_dir) {
  std::string error;
  const auto records = ReadRecords(ExpectedPath(data_dir), &error);
  std::vector<std::uint64_t> hashes(std::size(kGraphs));
  std::vector<bool> seen(std::size(kGraphs), false);
  for (const auto& rec : records) {
    std::size_t g = 0;
    while (g < std::size(kGraphs) && rec[0] != kGraphs[g]) ++g;
    if (rec.size() < 2 || g == std::size(kGraphs)) {
      error = "unknown graph in " + ExpectedPath(data_dir);
      break;
    }
    hashes[g] = std::stoull(rec[1], nullptr, 16);
    seen[g] = true;
  }
  for (std::size_t g = 0; error.empty() && g < seen.size(); ++g) {
    if (!seen[g]) error = std::string("no pinned hash for ") + kGraphs[g];
  }
  if (!error.empty()) {
    std::cerr << "perfbench: " << error << "\n";
    return nullptr;
  }
  return std::make_unique<ExploreSweep>(std::move(hashes));
}

bool GenerateExploreSweep(const std::string& data_dir) {
  std::ofstream out(ExpectedPath(data_dir));
  if (!out) {
    std::cerr << "perfbench: cannot write " << ExpectedPath(data_dir) << "\n";
    return false;
  }
  out << "# explore-sweep pinned results: <spec> <FrontierHash hex> "
         "<points> <optimal points> <non-monotone points>\n"
         "# Written by `wrbpg_perfbench --generate explore-sweep`.\n";
  for (const char* spec : kGraphs) {
    const Clock::time_point start = Clock::now();
    const wrbpg::ExploreResult r =
        wrbpg::Explore(BuildSpec(spec), SweepOptions());
    const double ms = SecondsSince(start) * 1e3;
    if (!r.ok) {
      std::cerr << "perfbench: " << spec << ": " << r.error << "\n";
      return false;
    }
    std::size_t optimal = 0;
    for (const wrbpg::ExplorePoint& p : r.points) optimal += p.gap == 0;
    out << spec << " " << std::hex << wrbpg::FrontierHash(r) << std::dec << " "
        << r.points.size() << " " << optimal << " " << NonMonotonePoints(r)
        << "\n";
    std::cerr << spec << " points=" << r.points.size() << " ms=" << ms << "\n";
  }
  return true;
}

}  // namespace perfbench
