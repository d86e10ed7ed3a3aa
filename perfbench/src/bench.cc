#include "bench.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "core/graph_builder.h"
#include "dataflows/builtin_spec.h"
#include "obs/metrics.h"

namespace perfbench {

void MergeInto(LayerTimes& into, const LayerTimes& from) {
  for (const auto& [name, t] : from) {
    into[name].count += t.count;
    into[name].ns += t.ns;
  }
}

double Phase::Throughput() const {
  if (!window_rps.empty()) return Median(window_rps);
  return wall_s > 0 ? static_cast<double>(calls) / wall_s : 0;
}

double Phase::LatencyP50() const {
  if (!window_p50_ms.empty()) return Median(window_p50_ms);
  return Percentile(latency_ms, 50);
}

void Phase::EndPass(std::size_t requests, Clock::time_point start) {
  window_rps.push_back(static_cast<double>(requests) / SecondsSince(start));
  window_p50_ms.push_back(Percentile(
      {latency_ms.end() - static_cast<std::ptrdiff_t>(requests),
       latency_ms.end()},
      50));
}

void Answers::Grade(Weight cost, Weight lower_bound) {
  ++answers;
  if (cost == lower_bound) ++optimal;
  sum_cost += static_cast<double>(cost);
  sum_lower_bound += static_cast<double>(lower_bound);
  sum_gap += static_cast<double>(cost - lower_bound);
}

void Answers::Fail(std::string problem) {
  ++failed_calls;
  if (problems.size() < 8) problems.push_back(std::move(problem));
}

Graph BuildSpec(const std::string& spec) {
  wrbpg::BuiltinGraph built = wrbpg::BuildBuiltinGraph(spec);
  if (!built.ok) {
    std::cerr << "perfbench: bad builtin spec " << spec << ": " << built.error
              << "\n";
    std::abort();
  }
  return built.graph();
}

Graph Relabel(const Graph& graph, wrbpg::Rng& rng) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> perm(n);  // old id -> new id
  std::iota(perm.begin(), perm.end(), NodeId{0});
  Shuffle(perm, rng);
  std::vector<NodeId> inv(n);
  for (NodeId v = 0; v < n; ++v) inv[perm[v]] = v;
  wrbpg::GraphBuilder builder;
  for (NodeId j = 0; j < n; ++j) {
    builder.AddNode(graph.weight(inv[j]), graph.name(inv[j]));
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : graph.children(v)) builder.AddEdge(perm[v], perm[c]);
  }
  return builder.BuildOrDie();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

std::uint64_t Fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

void SumSpans(const wrbpg::obs::SpanNode& node, std::string_view name,
              SpanTotal& total) {
  if (node.name == name) {
    total.count += node.count;
    total.total_ms += node.total_ms;
  }
  for (const auto& child : node.children) SumSpans(child, name, total);
}

}  // namespace

SpanTotal FindSpan(const wrbpg::obs::SpanNode& root, std::string_view name) {
  SpanTotal total;
  SumSpans(root, name, total);
  return total;
}

std::vector<std::vector<std::string>> ReadRecords(const std::string& path,
                                                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return {};
  }
  std::vector<std::vector<std::string>> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<std::string> record;
    for (std::string field; fields >> field;) record.push_back(field);
    if (!record.empty()) records.push_back(std::move(record));
  }
  if (records.empty()) *error = path + " holds no records";
  return records;
}

void AddObsMetrics(Metrics& out, std::uint64_t calls) {
  using wrbpg::obs::ReadMetric;
  const wrbpg::obs::SpanNode spans = wrbpg::obs::SnapshotSpans();
  const double n = static_cast<double>(calls);
  auto read = [](std::string_view name) {
    return static_cast<double>(ReadMetric(name));
  };

  const SpanTotal sim = FindSpan(spans, "simulate");
  out["core.simulate_us"] = {Ratio(sim.total_ms * 1e3,
                                   static_cast<double>(sim.count)), "us"};
  out["core.sim_runs_per_call"] = {Ratio(read("sim.runs"), n), "count"};

  const SpanTotal serve = FindSpan(spans, "service.serve");
  const SpanTotal solve = FindSpan(spans, "service.solve");
  out["service.self_us"] = {
      Ratio((serve.total_ms - solve.total_ms) * 1e3,
            static_cast<double>(serve.count)),
      "us"};
  out["service.inserts"] = {read("service.cache_inserts"), "count"};

  const double runs = read("robust.runs");
  for (const char* stage :
       {"recognition", "exact", "dwt-optimal", "belady", "greedy-topo"}) {
    const std::string name = stage;
    const SpanTotal t = FindSpan(spans, "robust.stage." + name);
    out["robust.stage." + name + "_ms"] = {Ratio(t.total_ms, runs), "ms"};
    out["robust.winner." + name] = {Ratio(read("robust.winner." + name), runs),
                                    "ratio"};
  }

  const double expanded = read("search.expanded");
  const double generated = read("search.generated");
  const double waves = read("search.waves");
  out["search.expanded"] = {Ratio(expanded, n), "count"};
  out["search.generated"] = {Ratio(generated, n), "count"};
  out["search.waves"] = {Ratio(waves, n), "count"};
  out["search.max_frontier"] = {read("search.max_frontier"), "count"};
  out["search.frontier_bytes"] = {read("search.frontier_bytes"), "B"};
  out["search.states_per_wave"] = {Ratio(expanded, waves), "count"};
  SpanTotal search;
  for (const char* engine : {"search.bb", "search.astar", "search.dijkstra",
                             "search.astar+dominance"}) {
    const SpanTotal t = FindSpan(spans, engine);
    search.count += t.count;
    search.total_ms += t.total_ms;
  }
  out["search.expand_rate"] = {Ratio(expanded, search.total_ms / 1e3), "1/s"};
  out["search.cpu_wall_ratio"] = {
      Ratio(read("search.succ_gen_ns"), search.total_ms * 1e6), "ratio"};
  out["search.prune_ratio"] = {
      Ratio(read("search.pruned_bound") + read("search.pruned_heuristic"),
            generated),
      "ratio"};
  out["search.dominated_ratio"] = {Ratio(read("search.pruned_dominated"),
                                         generated),
                                   "ratio"};
  const double bound_hit = read("search.bound_cache_hit");
  out["search.bound_cache_hit_ratio"] = {
      Ratio(bound_hit, bound_hit + read("search.bound_cache_miss")), "ratio"};
  const double intern_hit = read("search.intern_cache_hit");
  out["search.intern_cache_hit_ratio"] = {
      Ratio(intern_hit, intern_hit + read("search.intern_cache_miss")),
      "ratio"};

  const SpanTotal band = FindSpan(spans, "explore.derive-band");
  const SpanTotal explore_solve = FindSpan(spans, "explore.solve");
  const SpanTotal price = FindSpan(spans, "explore.price");
  const SpanTotal dominance = FindSpan(spans, "explore.dominance");
  const double explores = static_cast<double>(FindSpan(spans, "explore").count);
  out["explore.band_ms"] = {Ratio(band.total_ms, explores), "ms"};
  out["explore.solve_ms"] = {Ratio(explore_solve.total_ms, explores), "ms"};
  out["explore.price_ms"] = {Ratio(price.total_ms, explores), "ms"};
  out["explore.dominance_ms"] = {Ratio(dominance.total_ms, explores), "ms"};
}

}  // namespace perfbench
