// wrbpg_perfbench — the end-to-end benchmark (see ../README.md).
//
//   wrbpg_perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR
//   wrbpg_perfbench --stream-hash --workload W --seed N --data DIR
//   wrbpg_perfbench --list-metrics
//   wrbpg_perfbench --generate W --data DIR
//
// The run prints human-readable lines, then one JSON object as its last
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics with obs collection off; --trace 1 reports the
// per-layer metrics from a traced phase (obs on, benchmark-side spans)
// that follows an untraced phase of equal length. Exit 1 on any wrong
// or invalid answer, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by --trace 0, in BENCHMARK.json's end_to_end order.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_rps", "1/s"},  {"latency_p50_ms", "ms"},
    {"optimal_share", "ratio"}, {"certified_ratio", "ratio"},
    {"setup_s", "s"},
};

// Reported by --trace 1 on every workload; a layer the workload never
// enters reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.decode_us", "us"},
    {"core.encode_us", "us"},
    {"core.simulate_us", "us"},
    {"core.sim_runs_per_call", "count"},
    {"dataflows.build_us", "us"},
    {"ganalysis.hash_us", "us"},
    {"ganalysis.iso_us", "us"},
    {"ganalysis.recognize_us", "us"},
    {"ganalysis.cert_lb_ratio", "ratio"},
    {"service.hit_ratio", "ratio"},
    {"service.iso_hit_ratio", "ratio"},
    {"service.evictions", "count"},
    {"service.inserts", "count"},
    {"service.self_us", "us"},
    {"robust.stage.recognition_ms", "ms"},
    {"robust.stage.exact_ms", "ms"},
    {"robust.stage.dwt-optimal_ms", "ms"},
    {"robust.stage.belady_ms", "ms"},
    {"robust.stage.greedy-topo_ms", "ms"},
    {"robust.winner.recognition", "ratio"},
    {"robust.winner.exact", "ratio"},
    {"robust.winner.dwt-optimal", "ratio"},
    {"robust.winner.belady", "ratio"},
    {"robust.winner.greedy-topo", "ratio"},
    {"robust.overhang_ms", "ms"},
    {"search.expanded", "count"},
    {"search.generated", "count"},
    {"search.waves", "count"},
    {"search.max_frontier", "count"},
    {"search.frontier_bytes", "B"},
    {"search.states_per_wave", "count"},
    {"search.expand_rate", "1/s"},
    {"search.cpu_wall_ratio", "ratio"},
    {"search.prune_ratio", "ratio"},
    {"search.dominated_ratio", "ratio"},
    {"search.bound_cache_hit_ratio", "ratio"},
    {"search.intern_cache_hit_ratio", "ratio"},
    {"explore.band_ms", "ms"},
    {"explore.solve_ms", "ms"},
    {"explore.price_ms", "ms"},
    {"explore.dominance_ms", "ms"},
    {"explore.pool_efficiency", "ratio"},
    {"explore.nonmonotone_points", "count"},
    {"hardware.synth_us", "us"},
    {"hardware.energy_us", "us"},
    {"trace.untraced_rps", "1/s"},
    {"trace.traced_rps", "1/s"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

// Benchmark-side spans that become "<name>_us" per-layer metrics.
constexpr const char* kProbeLayers[] = {
    "core.decode",        "core.encode",    "dataflows.build",
    "ganalysis.hash",     "ganalysis.iso",  "ganalysis.recognize",
};

struct Args {
  std::string workload;
  std::string generate;
  std::string data = "perfbench/expected";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool stream_hash = false;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--stream-hash") {
      args.stream_hash = true;
      continue;
    }
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--generate") {
        args.generate = value;
      } else if (flag == "--data") {
        args.data = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        std::cerr << "error: unknown flag " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "error: bad value for " << flag << ": " << value << "\n";
      return false;
    }
  }
  if (args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    std::cerr << "error: --seconds must be > 0 and --trace 0 or 1\n";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& data) {
  if (name == "serve-hot") return MakeServeHot(data);
  if (name == "solve-cold") return MakeSolveCold(data);
  if (name == "solve-deadline") return MakeSolveDeadline(data);
  if (name == "explore-sweep") return MakeExploreSweep(data);
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Times Setup in batches, each repeating it until the batch has run
// kMinBatchSeconds, for at least kMinBatches batches and kWindowSeconds,
// and appends the batch means to `batch_means`. The workload keeps the
// last setup.
//
// Other tenants of the host slow a setup down by up to about 1.6x for
// seconds at a time (measured on a 4-vCPU KVM guest: a dozen page faults
// and a few preemptions in a 2 s window, the same code at two speeds), and
// a median of batch means lands on either speed. Interference only ever
// adds time, so RunEndToEnd times one window before the timed phase and one
// after it and reports the fastest batch mean: the setup's own cost.
void TimedSetups(Workload& workload, std::uint64_t seed,
                 std::vector<double>& batch_means) {
  constexpr int kMinBatches = 5;
  constexpr double kMinBatchSeconds = 0.1;
  constexpr double kWindowSeconds = 2.0;
  const Clock::time_point begin = Clock::now();
  for (int batches = 0;
       batches < kMinBatches || SecondsSince(begin) < kWindowSeconds;
       ++batches) {
    const Clock::time_point start = Clock::now();
    int setups = 0;
    do {
      workload.Setup(seed);
      ++setups;
    } while (SecondsSince(start) < kMinBatchSeconds);
    batch_means.push_back(SecondsSince(start) / setups);
  }
}

void PrintLine(const std::string& name, double value, const std::string& unit) {
  std::cout << "  " << name << " = " << value << " " << unit << "\n";
}

void ReportProblems(const Answers& answers) {
  for (const std::string& p : answers.problems) {
    std::cerr << "perfbench: FAILED ANSWER: " << p << "\n";
  }
}

int Finish(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics& metrics) {
  using wrbpg::obs::Json;
  Json out = Json::Object();
  out.Set("correct", correct);
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  Json values = Json::Object();
  for (const auto& [name, metric] : metrics) {
    values.Set(name, Json::Object()
                         .Set("value", metric.value)
                         .Set("unit", metric.unit));
  }
  out.Set("metrics", std::move(values));
  std::cout << out.Dump(0) << std::flush;  // Dump ends the line
  return correct ? 0 : 1;
}

int RunEndToEnd(Workload& workload, const Args& args) {
  std::vector<double> setup_batches;
  TimedSetups(workload, args.seed, setup_batches);
  std::cout << "stream_hash = " << std::hex << workload.StreamHash()
            << std::dec << "\n";
  const Phase phase = workload.Measure(args.seconds, /*traced=*/false);
  const Answers answers = workload.Check();
  ReportProblems(answers);
  const double peak_rss_mb = PeakRssMb();
  // The answers are checked, so setting up again (same seed, same inputs)
  // loses nothing.
  TimedSetups(workload, args.seed, setup_batches);
  const double setup_s =
      *std::min_element(setup_batches.begin(), setup_batches.end());

  const std::size_t samples = phase.latency_ms.size();
  Metrics m;
  m["throughput_rps"] = {phase.Throughput(), "1/s"};
  m["latency_p50_ms"] = {phase.LatencyP50(), "ms"};
  m["optimal_share"] = {Ratio(static_cast<double>(answers.optimal),
                              static_cast<double>(answers.answers)),
                        "ratio"};
  m["certified_ratio"] = {Ratio(answers.sum_lower_bound, answers.sum_cost),
                          "ratio"};
  m["setup_s"] = {setup_s, "s"};

  // The remaining end-to-end metrics are printed but not gated: they are
  // zero-valued, vary too much between runs of one seed to gate (peak
  // RSS), or lack the samples on some workload (p90, p99).
  std::cout << "workload " << args.workload << " seed " << args.seed
            << ": calls=" << phase.calls << " clients=" << phase.clients
            << " wall_s=" << phase.wall_s << " answers=" << answers.answers
            << "\n";
  std::cout << "  window_rps =";
  for (const double rps : phase.window_rps) std::cout << " " << rps;
  std::cout << "\n";
  for (const MetricSpec& spec : kEndToEnd) {
    PrintLine(spec.name, m[spec.name].value, spec.unit);
  }
  if (samples >= 100) {
    PrintLine("latency_p90_ms", Percentile(phase.latency_ms, 90), "ms");
  }
  if (samples >= 1000) {
    PrintLine("latency_p99_ms", Percentile(phase.latency_ms, 99), "ms");
  }
  PrintLine("peak_rss_mb", peak_rss_mb, "MiB");
  PrintLine("gap_ratio", Ratio(answers.sum_gap, answers.sum_cost), "ratio");
  PrintLine("fail_share",
            Ratio(static_cast<double>(answers.failed_calls),
                  static_cast<double>(phase.calls)),
            "ratio");
  const bool correct = answers.failed_calls == 0 && phase.calls > 0;
  return Finish(correct, phase.calls, answers.failed_calls, m);
}

int RunTraced(Workload& workload, const Args& args) {
  workload.Setup(args.seed);
  std::cout << "stream_hash = " << std::hex << workload.StreamHash()
            << std::dec << "\n";
  const Phase plain = workload.Measure(args.seconds / 2, /*traced=*/false);
  const Answers plain_answers = workload.Check();
  ReportProblems(plain_answers);

  wrbpg::obs::ResetAll();
  wrbpg::obs::SetEnabled(true);
  const Phase traced = workload.Measure(args.seconds / 2, /*traced=*/true);
  wrbpg::obs::SetEnabled(false);

  Metrics m;
  for (const MetricSpec& spec : kPerLayer) m[spec.name] = {0, spec.unit};
  AddObsMetrics(m, traced.calls);
  for (const char* layer : kProbeLayers) {
    const auto it = traced.layers.find(layer);
    if (it != traced.layers.end()) {
      m[std::string(layer) + "_us"] = {it->second.MeanUs(), "us"};
    }
  }
  double attributed_ms = 0;
  for (const auto& [name, t] : traced.layers) attributed_ms += t.TotalMs();
  const double client_ms =
      static_cast<double>(traced.clients) * traced.wall_s * 1e3;
  const double plain_rps = plain.Throughput();
  const double traced_rps = traced.Throughput();
  m["trace.untraced_rps"] = {plain_rps, "1/s"};
  m["trace.traced_rps"] = {traced_rps, "1/s"};
  m["trace.overhead_share"] = {Ratio(plain_rps - traced_rps, plain_rps),
                               "ratio"};
  m["trace.unattributed_share"] = {1.0 - Ratio(attributed_ms, client_ms),
                                   "ratio"};

  const Answers answers = workload.Check();
  ReportProblems(answers);
  for (auto& [name, metric] : workload.LayerMetrics(traced, answers)) {
    m[name] = metric;
  }

  std::cout << "workload " << args.workload << " seed " << args.seed
            << " (traced): calls=" << traced.calls << " wall_s="
            << traced.wall_s << "\n";
  bool names_ok = m.size() == std::size(kPerLayer);
  for (const auto& [name, metric] : m) {
    PrintLine(name, metric.value, metric.unit);
  }
  if (!names_ok) {
    std::cerr << "perfbench: workload reported a metric outside the "
                 "per-layer list\n";
  }
  const std::uint64_t failed =
      plain_answers.failed_calls + answers.failed_calls;
  const bool correct = failed == 0 && names_ok && traced.calls > 0;
  return Finish(correct, plain.calls + traced.calls, failed, m);
}

int Generate(const Args& args) {
  wrbpg::obs::SetEnabled(false);
  bool ok = false;
  if (args.generate == "solve-cold") {
    ok = GenerateSolveCold(args.data);
  } else if (args.generate == "explore-sweep") {
    ok = GenerateExploreSweep(args.data);
  } else if (args.generate == "solve-deadline") {
    ok = GenerateSolveDeadline(args.data);
  } else {
    std::cerr << "error: no expected-answer file for " << args.generate
              << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  if (args.list_metrics) {
    for (const MetricSpec& spec : kEndToEnd) {
      std::cout << "end_to_end " << spec.name << " " << spec.unit << "\n";
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::cout << "per_layer " << spec.name << " " << spec.unit << "\n";
    }
    return 0;
  }
  if (!args.generate.empty()) return Generate(args);

  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.data);
  if (workload == nullptr) {
    std::cerr << "error: cannot run --workload '" << args.workload
              << "' (serve-hot, solve-cold, solve-deadline, explore-sweep)\n";
    return 2;
  }
  // End-to-end numbers are measured with the obs layer switched off.
  wrbpg::obs::SetEnabled(false);
  if (args.stream_hash) {
    workload->Setup(args.seed);
    std::cout << std::hex << workload->StreamHash() << std::dec << "\n";
    return 0;
  }
  return args.trace == 1 ? RunTraced(*workload, args)
                         : RunEndToEnd(*workload, args);
}
