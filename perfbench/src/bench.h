// Shared plumbing of the end-to-end benchmark: the workload interface,
// what one timed phase records, answer bookkeeping, and small helpers
// (relabeling, percentiles, span-tree lookups, the stream hash).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "core/types.h"
#include "obs/span.h"
#include "util/rng.h"

namespace perfbench {

using wrbpg::Graph;
using wrbpg::NodeId;
using wrbpg::Weight;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Benchmark-side spans: time spent inside calls into one library layer,
// accumulated per client thread and merged after the phase.
struct LayerTime {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  void Add(std::uint64_t elapsed_ns) {
    ++count;
    ns += elapsed_ns;
  }
  double MeanUs() const {
    return count == 0 ? 0 : static_cast<double>(ns) / 1e3 /
                                static_cast<double>(count);
  }
  double TotalMs() const { return static_cast<double>(ns) / 1e6; }
};
using LayerTimes = std::map<std::string, LayerTime>;
void MergeInto(LayerTimes& into, const LayerTimes& from);

// One timed phase of a workload.
struct Phase {
  std::uint64_t calls = 0;       // top-level calls completed
  double wall_s = 0;             // wall time of the phase
  std::size_t clients = 1;       // closed-loop client threads
  std::vector<double> latency_ms;
  // Benchmark-side spans by layer ("core.decode", "top.serve", ...). They
  // never nest, so their sum is the client time attributed to a layer.
  LayerTimes layers;
  // Calls per second of each pass over a fixed request list. When set,
  // Throughput reports their median, so one pass slowed by outside noise
  // does not move it; otherwise calls / wall_s.
  std::vector<double> window_rps;
  std::vector<double> window_p50_ms;  // p50 latency of each pass, likewise
  double Throughput() const;
  double LatencyP50() const;
  // Closes a pass of `requests` calls that started at `start`.
  void EndPass(std::size_t requests, Clock::time_point start);
};

// Quality and correctness of every answer a phase produced, filled by the
// workload's check pass after the timed window closed.
struct Answers {
  std::uint64_t failed_calls = 0;  // not ok, failed re-simulation, or wrong
  std::uint64_t answers = 0;       // answers graded (schedules or points)
  std::uint64_t optimal = 0;       // answers with certified gap 0
  double sum_cost = 0;
  double sum_lower_bound = 0;
  double sum_gap = 0;
  std::vector<std::string> problems;  // first few failures, for stderr
  void Grade(Weight cost, Weight lower_bound);
  void Fail(std::string problem);
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from `seed` and warms whatever the workload
  // keeps warm. Called several times per run; each call starts afresh.
  virtual void Setup(std::uint64_t seed) = 0;
  // FNV-1a over the generated request stream (bytes, budgets, order).
  virtual std::uint64_t StreamHash() const = 0;
  // Runs the closed loop for about `seconds`; `traced` adds the
  // benchmark-side layer probes. Answers are kept for Check.
  virtual Phase Measure(double seconds, bool traced) = 0;
  // Verifies every answer the last Measure returned, outside the timed
  // window, and grades its quality.
  virtual Answers Check() = 0;
  // Per-layer metrics of the last (traced) Measure, from its phase, its
  // answers, and the obs snapshot taken right after it.
  virtual Metrics LayerMetrics(const Phase& phase,
                               const Answers& answers) = 0;
};

std::unique_ptr<Workload> MakeServeHot(const std::string& data_dir);
std::unique_ptr<Workload> MakeSolveCold(const std::string& data_dir);
std::unique_ptr<Workload> MakeSolveDeadline(const std::string& data_dir);
std::unique_ptr<Workload> MakeExploreSweep(const std::string& data_dir);

// Writes the expected-answer file of a workload that has one (generator
// mode). Returns false, with a message on stderr, on failure.
bool GenerateSolveCold(const std::string& data_dir);
bool GenerateExploreSweep(const std::string& data_dir);
bool GenerateSolveDeadline(const std::string& data_dir);

// ---- helpers ----

// Builds a builtin spec ("dwt:16,2", ...); aborts on a malformed spec,
// which in this benchmark is a programming error.
Graph BuildSpec(const std::string& spec);

// Relabels node ids by a seeded permutation: an isomorph of `graph`.
Graph Relabel(const Graph& graph, wrbpg::Rng& rng);

// Fisher-Yates with the library's platform-independent generator.
template <typename T>
void Shuffle(std::vector<T>& items, wrbpg::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i - 1)));
    std::swap(items[i - 1], items[j]);
  }
}

// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// FNV-1a, for the stream hash.
std::uint64_t Fnv1a(std::uint64_t hash, std::string_view bytes);
std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

// Sum of count / total_ms over every node named `name` in the span tree.
struct SpanTotal {
  std::uint64_t count = 0;
  double total_ms = 0;
};
SpanTotal FindSpan(const wrbpg::obs::SpanNode& root, std::string_view name);

// Expected-answer files: one record per line, whitespace-separated
// fields, '#' comments. Returns the records, or empty with an error.
std::vector<std::vector<std::string>> ReadRecords(const std::string& path,
                                                  std::string* error);

// Shared per-layer metrics read from the obs snapshot: core.simulate,
// ganalysis, robust.*, search.*, service.* (zero where a layer did not
// run). `calls` normalizes the per-call counts.
void AddObsMetrics(Metrics& out, std::uint64_t calls);

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench
