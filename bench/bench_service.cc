// bench_service — recurring-request workload against ScheduleService
// (DESIGN.md §13).
//
// Production request streams repeat: the same dataflow shapes are
// scheduled over and over, often under fresh node labelings. The bench
// models that — a fixed pool of distinct graphs (seeded random layered
// CDAGs, their permuted isomorphs, and recognized builtin families) is
// cycled through N requests against one shared service — and reports:
//
//   * cache hit rate (byte-identical + isomorph hits),
//   * p50/p99 latency of cold solves vs cache-served responses and the
//     p50 speedup,
//   * single-flight / batch dedup savings (concurrent identical requests
//     through Serve, and an identical-request ServeBatch),
//   * bit-identity of cache hits against independent cold solves,
//   * repeated relabelings: p50 of the first iso hit of a labeling, of
//     the same labeling asked again (served from the memoized answer)
//     and of exact hits, and a fresh-labeling stream (every request a
//     new relabeling, where memoizing cannot pay) with its evictions.
//
// Results go to BENCH_service.json (--json <path>) in the stable
// wrbpg-bench-service-v1 schema; stdout gets the human summary. Exit 1
// when an acceptance bound fails (hit rate >= 0.8, p50 speedup >= 50x,
// bit-identity, every repeated relabeling an exact hit with the first
// reply's schedule bytes) so CI can gate on it. --requests scales the
// stream (default 120, minimum 2x the pool size).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "dataflows/builtin_spec.h"
#include "obs/json.h"
#include "obs/report.h"
#include "service/service.h"
#include "util/cli.h"

using namespace wrbpg;

namespace {

// Relabels the graph by a seeded random permutation: structurally the
// same instance, byte-wise a different one — exactly what the service's
// isomorph cache path is for.
Graph PermuteGraph(const Graph& graph, std::uint64_t seed) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> perm(n);  // old id -> new id
  std::iota(perm.begin(), perm.end(), NodeId{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<NodeId> inv(n);
  for (NodeId v = 0; v < n; ++v) inv[perm[v]] = v;
  GraphBuilder builder;
  for (NodeId j = 0; j < n; ++j) {
    builder.AddNode(graph.weight(inv[j]), graph.name(inv[j]));
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : graph.children(v)) {
      builder.AddEdge(perm[v], perm[c]);
    }
  }
  return builder.BuildOrDie();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct Instance {
  std::string label;
  Graph graph;
  Weight budget = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.ApplyThreadsFlag();
  const std::string json_path = args.GetString("json", "BENCH_service.json");
  std::int64_t num_requests = args.GetInt("requests", 120);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  // The request pool: three seeded random layered CDAGs (exact-stage
  // solves, milliseconds cold), permuted isomorphs of two of them, and
  // two recognized families (microsecond cold solves) — 7 distinct
  // graphs, under the acceptance ceiling of 10.
  std::vector<Instance> pool;
  const std::vector<std::string> specs = {"random:4,4,11", "random:4,4,12",
                                          "random:3,5,13", "dwt:16,3",
                                          "kary:2,3"};
  for (const std::string& spec : specs) {
    BuiltinGraph built = BuildBuiltinGraph(spec);
    if (!built.ok) {
      std::cerr << "error: " << spec << ": " << built.error << "\n";
      return 1;
    }
    Instance inst;
    inst.label = spec;
    inst.graph = built.graph();
    inst.budget = MinValidBudget(inst.graph) + 8;
    pool.push_back(std::move(inst));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    Instance iso;
    iso.label = pool[i].label + "~perm";
    iso.graph = PermuteGraph(pool[i].graph, 0xfeed + i);
    iso.budget = pool[i].budget;
    pool.push_back(std::move(iso));
  }
  if (num_requests < static_cast<std::int64_t>(2 * pool.size())) {
    num_requests = static_cast<std::int64_t>(2 * pool.size());
  }

  // Phase 1: the recurring stream. Round-robin over the pool, so every
  // graph goes cold exactly once (isomorphs go "iso-warm") and every
  // revisit must be served from cache.
  ScheduleService service;
  std::vector<double> cold_ms;
  std::vector<double> cached_ms;
  // Each instance's first reply: a cold solve, or for a permuted isomorph
  // the verified renaming that later requests for it are served from.
  std::vector<ServiceResponse> first_reply(pool.size());
  for (std::int64_t r = 0; r < num_requests; ++r) {
    const std::size_t index = static_cast<std::size_t>(r) % pool.size();
    const Instance& inst = pool[index];
    ServiceRequest request;
    request.graph = &inst.graph;
    request.budget = inst.budget;
    const ServiceResponse response = service.Serve(request);
    if (!response.ok) {
      std::cerr << "error: request " << r << " (" << inst.label
                << ") failed: " << response.error << "\n";
      return 1;
    }
    if (static_cast<std::size_t>(r) < pool.size()) {
      first_reply[index] = response;
    }
    if (response.source == ServeSource::kSolved) {
      cold_ms.push_back(response.latency_ms);
    } else {
      cached_ms.push_back(response.latency_ms);
    }
  }
  const ServiceStats stream = service.stats();
  const double hit_rate =
      stream.requests == 0
          ? 0
          : static_cast<double>(stream.cache_hits + stream.iso_hits) /
                static_cast<double>(stream.requests);
  const double cold_p50 = Percentile(cold_ms, 50);
  const double cold_p99 = Percentile(cold_ms, 99);
  const double cached_p50 = Percentile(cached_ms, 50);
  const double cached_p99 = Percentile(cached_ms, 99);
  const double speedup_p50 = cached_p50 > 0 ? cold_p50 / cached_p50 : 0;

  // Phase 2: bit-identity. Every cached answer for a request with the
  // same weights and edges is the reply that request's graph first got:
  // for a solved instance that equals an independent cold solve —
  // schedule bytes, cost, bound, termination, the lot; for a permuted
  // isomorph it is the verified renaming it received on its iso hit,
  // whose cost equals the cold solve's (the node labeling follows the
  // request, so the bytes need not).
  bool bit_identical = true;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Instance& inst = pool[i];
    ServiceRequest request;
    request.graph = &inst.graph;
    request.budget = inst.budget;
    const ServiceResponse warm = service.Serve(request);
    ServiceOptions cold_options;
    cold_options.cache_bytes = 0;  // cache disabled: always a cold solve
    ScheduleService cold_service(cold_options);
    const ServiceResponse cold = cold_service.Serve(request);
    const ServiceResponse& first = first_reply[i];
    const bool solved_first = first.source == ServeSource::kSolved;
    const ServiceResponse& reference = solved_first ? cold : first;
    if (warm.source != ServeSource::kCacheHit ||
        ToBinary(warm.result.schedule) !=
            ToBinary(reference.result.schedule) ||
        warm.result.cost != cold.result.cost ||
        warm.result.lower_bound != reference.result.lower_bound) {
      std::cerr << "BIT-IDENTITY VIOLATION: " << inst.label << " ("
                << (solved_first ? "vs cold solve" : "vs first iso reply")
                << ")\n";
      bit_identical = false;
    }
  }

  // Phase 3: dedup savings. (a) Concurrent identical requests through
  // Serve on a cold service — single-flight collapses them to one solve;
  // (b) an identical-request ServeBatch — the batch executor collapses
  // them before they even reach a flight.
  const std::size_t hammer_threads = 8;
  ScheduleService flight_service;
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < hammer_threads; ++t) {
      threads.emplace_back([&] {
        ServiceRequest request;
        request.graph = &pool[0].graph;
        request.budget = pool[0].budget;
        (void)flight_service.Serve(request);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const ServiceStats flight = flight_service.stats();

  const std::size_t batch_size = 12;
  ScheduleService batch_service;
  std::vector<ServiceRequest> batch(batch_size);
  for (ServiceRequest& request : batch) {
    request.graph = &pool[1].graph;
    request.budget = pool[1].budget;
  }
  const std::vector<ServiceResponse> batch_responses =
      batch_service.ServeBatch(batch);
  const ServiceStats batched = batch_service.stats();
  bool batch_ok = batch_responses.size() == batch_size;
  for (const ServiceResponse& response : batch_responses) {
    batch_ok = batch_ok && response.ok;
  }

  // Phase 4: repeated relabelings. Each recurring graph is solved once,
  // then asked for under kRelabelings fixed relabelings, kRounds times
  // each. The first request of a labeling is an iso hit; every later one
  // must be an exact hit returning the first reply's schedule bytes.
  constexpr std::size_t kRelabelings = 4;
  constexpr std::size_t kRounds = 5;
  ScheduleService relabel_service;
  std::vector<double> first_iso_ms;
  std::vector<double> repeat_ms;
  std::vector<double> exact_ms;
  bool repeats_exact = true;
  std::vector<Graph> relabeled;
  std::vector<std::size_t> relabeled_of;  // pool index of relabeled[i]
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t r = 0; r < kRelabelings; ++r) {
      relabeled.push_back(PermuteGraph(pool[i].graph, 0xab0 + 16 * i + r));
      relabeled_of.push_back(i);
    }
  }
  std::vector<std::string> first_bytes(relabeled.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ServiceRequest request;
    request.graph = &pool[i].graph;
    request.budget = pool[i].budget;
    (void)relabel_service.Serve(request);
  }
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t j = 0; j < relabeled.size(); ++j) {
      const Instance& base = pool[relabeled_of[j]];
      ServiceRequest request;
      request.graph = &relabeled[j];
      request.budget = base.budget;
      const ServiceResponse response = relabel_service.Serve(request);
      const std::string bytes = ToBinary(response.result.schedule);
      if (round == 0) {
        first_bytes[j] = bytes;
        if (response.source == ServeSource::kIsoCacheHit) {
          first_iso_ms.push_back(response.latency_ms);
        }
      } else if (response.source != ServeSource::kCacheHit ||
                 bytes != first_bytes[j] || !response.ok) {
        std::cerr << "RELABELING NOT SERVED EXACTLY: " << base.label
                  << " labeling " << j << " round " << round << "\n";
        repeats_exact = false;
      } else {
        repeat_ms.push_back(response.latency_ms);
      }
      request.graph = &base.graph;
      const ServiceResponse exact = relabel_service.Serve(request);
      if (exact.source == ServeSource::kCacheHit) {
        exact_ms.push_back(exact.latency_ms);
      }
    }
  }
  const ServiceStats relabel = relabel_service.stats();

  // Phase 5: a fresh-labeling stream. Every request is a relabeling never
  // seen before, so each memoized answer is dead weight in the cache; a
  // 1 MiB cache makes that cost visible as evictions.
  constexpr std::size_t kFreshRequests = 2000;
  ServiceOptions fresh_options;
  fresh_options.cache_bytes = 1u << 20;
  ScheduleService fresh_service(fresh_options);
  std::vector<double> fresh_ms;
  bool fresh_ok = true;
  for (std::size_t r = 0; r < kFreshRequests; ++r) {
    const Instance& base = pool[r % specs.size()];
    const Graph graph =
        r < specs.size() ? base.graph : PermuteGraph(base.graph, 0xf00d + r);
    ServiceRequest request;
    request.graph = &graph;
    request.budget = base.budget;
    const ServiceResponse response = fresh_service.Serve(request);
    fresh_ok = fresh_ok && response.ok;
    if (r >= specs.size()) fresh_ms.push_back(response.latency_ms);
  }
  const ServiceStats fresh = fresh_service.stats();

  const double first_iso_p50 = Percentile(first_iso_ms, 50);
  const double repeat_p50 = Percentile(repeat_ms, 50);
  const double exact_p50 = Percentile(exact_ms, 50);

  const bool pass_hit_rate = hit_rate >= 0.8;
  const bool pass_speedup = speedup_p50 >= 50;
  const bool pass_relabel = repeats_exact &&
                            first_iso_ms.size() == relabeled.size() &&
                            relabel.solves == specs.size();
  const bool pass = pass_hit_rate && pass_speedup && bit_identical &&
                    batch_ok && flight.solves <= 1 && batched.solves <= 1 &&
                    pass_relabel && fresh_ok;

  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "wrbpg-bench-service-v1");
  doc.Set("requests", static_cast<std::int64_t>(num_requests));
  doc.Set("distinct_graphs", static_cast<std::int64_t>(pool.size()));
  obs::Json cache = obs::Json::Object();
  cache.Set("hit_rate", hit_rate);
  cache.Set("hits", stream.cache_hits);
  cache.Set("iso_hits", stream.iso_hits);
  cache.Set("misses", stream.misses);
  cache.Set("solves", stream.solves);
  cache.Set("entries", stream.cache_entries);
  cache.Set("bytes", stream.cache_bytes);
  doc.Set("cache", std::move(cache));
  obs::Json latency = obs::Json::Object();
  latency.Set("cold_p50_ms", cold_p50);
  latency.Set("cold_p99_ms", cold_p99);
  latency.Set("cached_p50_ms", cached_p50);
  latency.Set("cached_p99_ms", cached_p99);
  latency.Set("speedup_p50", speedup_p50);
  doc.Set("latency", std::move(latency));
  obs::Json dedup = obs::Json::Object();
  dedup.Set("concurrent_requests",
            static_cast<std::int64_t>(hammer_threads));
  dedup.Set("concurrent_solves", flight.solves);
  dedup.Set("concurrent_shared", flight.dedup_shared + flight.cache_hits);
  dedup.Set("batch_requests", static_cast<std::int64_t>(batch_size));
  dedup.Set("batch_solves", batched.solves);
  dedup.Set("batch_shared", batched.dedup_shared);
  doc.Set("dedup", std::move(dedup));
  obs::Json relabel_doc = obs::Json::Object();
  relabel_doc.Set("labelings", static_cast<std::int64_t>(relabeled.size()));
  relabel_doc.Set("rounds", static_cast<std::int64_t>(kRounds));
  relabel_doc.Set("first_iso_p50_ms", first_iso_p50);
  relabel_doc.Set("repeat_p50_ms", repeat_p50);
  relabel_doc.Set("exact_p50_ms", exact_p50);
  relabel_doc.Set("iso_hits", relabel.iso_hits);
  relabel_doc.Set("memo_inserts", relabel.iso_memo_inserts);
  relabel_doc.Set("solves", relabel.solves);
  relabel_doc.Set("repeats_exact", repeats_exact);
  doc.Set("relabel", std::move(relabel_doc));
  obs::Json fresh_doc = obs::Json::Object();
  fresh_doc.Set("requests", static_cast<std::int64_t>(kFreshRequests));
  fresh_doc.Set("cache_bytes",
                static_cast<std::int64_t>(fresh_options.cache_bytes));
  fresh_doc.Set("p50_ms", Percentile(fresh_ms, 50));
  fresh_doc.Set("iso_hits", fresh.iso_hits);
  fresh_doc.Set("memo_inserts", fresh.iso_memo_inserts);
  fresh_doc.Set("solves", fresh.solves);
  fresh_doc.Set("evictions", fresh.cache_evictions);
  fresh_doc.Set("ok", fresh_ok);
  doc.Set("fresh_labelings", std::move(fresh_doc));
  doc.Set("bit_identical", bit_identical);
  doc.Set("pass", pass);

  std::string error;
  if (!obs::WriteJsonFile(json_path, doc, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  std::cout << "bench_service: " << num_requests << " requests over "
            << pool.size() << " distinct graphs\n"
            << "  hit rate:      " << hit_rate * 100 << "% ("
            << stream.cache_hits << " exact + " << stream.iso_hits
            << " iso of " << stream.requests << ")\n"
            << "  cold p50/p99:  " << cold_p50 << " / " << cold_p99
            << " ms (" << cold_ms.size() << " solves)\n"
            << "  cached p50/99: " << cached_p50 << " / " << cached_p99
            << " ms (" << cached_ms.size() << " served)\n"
            << "  p50 speedup:   " << speedup_p50 << "x\n"
            << "  single-flight: " << hammer_threads << " concurrent -> "
            << flight.solves << " solve(s)\n"
            << "  batch dedup:   " << batch_size << " identical -> "
            << batched.solves << " solve(s), " << batched.dedup_shared
            << " shared\n"
            << "  bit-identical: " << (bit_identical ? "yes" : "NO") << "\n"
            << "  relabelings:   " << relabeled.size() << " x " << kRounds
            << " rounds, p50 first-iso / repeat / exact " << first_iso_p50
            << " / " << repeat_p50 << " / " << exact_p50 << " ms, repeats "
            << (repeats_exact ? "exact" : "NOT EXACT") << "\n"
            << "  fresh stream:  " << kFreshRequests << " new labelings, "
            << fresh.iso_hits << " iso hits, " << fresh.solves
            << " solve(s), " << fresh.cache_evictions << " evictions\n"
            << "  [json] " << json_path << "\n"
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
