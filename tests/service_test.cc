// ScheduleService (src/service/): cache determinism across threads,
// single-flight dedup, isomorph hits and their memoized answers, the
// two-level key, byte-budget eviction, batch dispatch, the deadline
// admission policy, and counter consistency under concurrent serves.
#include <algorithm>
#include <cstdint>
#include <latch>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/simulator.h"
#include "dataflows/builtin_spec.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace wrbpg {
namespace {

Graph BuiltinOrDie(const std::string& spec) {
  BuiltinGraph built = BuildBuiltinGraph(spec);
  EXPECT_TRUE(built.ok) << spec << ": " << built.error;
  return built.graph();
}

Graph PermuteGraph(const Graph& graph, std::uint64_t seed) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> perm(n);
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

// A cache hit must be bit-identical to a cold solve, and the cold solve
// itself must be independent of thread count — the two determinism
// contracts composed. Sweep threads {1, 2, 8}: every cold response and
// every subsequent hit must carry the same schedule bytes, cost, and
// bound. (Width independence of the solve is pinned at the engine level,
// engine_differential_test.)
TEST(ScheduleService, CacheHitsBitIdenticalAcrossThreads) {
  const Graph graph = BuiltinOrDie("random:3,4,7");
  const Weight budget = MinValidBudget(graph) + 8;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;

  std::string reference_bytes;
  Weight reference_cost = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ServiceOptions options;
    options.robust.threads = threads;
    ScheduleService service(options);

    const ServiceResponse cold = service.Serve(request);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.source, ServeSource::kSolved);
    const std::string cold_bytes = ToBinary(cold.result.schedule);
    if (reference_bytes.empty()) {
      reference_bytes = cold_bytes;
      reference_cost = cold.result.cost;
    }
    EXPECT_EQ(cold_bytes, reference_bytes) << "threads=" << threads;
    EXPECT_EQ(cold.result.cost, reference_cost);

    const ServiceResponse hit = service.Serve(request);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.source, ServeSource::kCacheHit);
    EXPECT_EQ(ToBinary(hit.result.schedule), cold_bytes);
    EXPECT_EQ(hit.result.cost, cold.result.cost);
    EXPECT_EQ(hit.result.lower_bound, cold.result.lower_bound);
    EXPECT_EQ(hit.result.termination, cold.result.termination);
    EXPECT_EQ(hit.winner, cold.winner);
  }
}

TEST(ScheduleService, SingleFlightCollapsesConcurrentIdenticalRequests) {
  const Graph graph = BuiltinOrDie("random:4,4,21");
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;

  constexpr std::size_t kThreads = 8;
  std::vector<ServiceResponse> responses(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ServiceRequest request;
        request.graph = &graph;
        request.budget = budget;
        responses[t] = service.Serve(request);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Exactly one solver-chain execution, however the 8 interleave (flight
  // followers and post-completion cache hits are both fine).
  EXPECT_EQ(service.stats().solves, 1u);
  const std::string expected = ToBinary(responses[0].result.schedule);
  for (const ServiceResponse& response : responses) {
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(ToBinary(response.result.schedule), expected);
  }
}

TEST(ScheduleService, ServesPermutedIsomorphsFromCache) {
  const Graph graph = BuiltinOrDie("random:3,4,9");
  const Graph permuted = PermuteGraph(graph, 0xabcd);
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;

  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.source, ServeSource::kSolved);

  ServiceRequest iso_request;
  iso_request.graph = &permuted;
  iso_request.budget = budget;
  const ServiceResponse iso = service.Serve(iso_request);
  ASSERT_TRUE(iso.ok);
  EXPECT_EQ(iso.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(iso.result.cost, cold.result.cost);
  EXPECT_EQ(iso.key, cold.key);
  // The renamed schedule is valid for the REQUEST's labeling.
  const SimResult sim = Simulate(permuted, budget, iso.result.schedule);
  EXPECT_TRUE(sim.valid);
  EXPECT_EQ(sim.cost, cold.result.cost);
  EXPECT_EQ(service.stats().iso_hits, 1u);
  EXPECT_EQ(service.stats().solves, 1u);

  // With iso hits disabled the permuted request is a plain miss.
  ServiceOptions no_iso;
  no_iso.iso_hits = false;
  ScheduleService strict(no_iso);
  ASSERT_TRUE(strict.Serve(request).ok);
  const ServiceResponse strict_iso = strict.Serve(iso_request);
  ASSERT_TRUE(strict_iso.ok);
  EXPECT_EQ(strict_iso.source, ServeSource::kSolved);
  EXPECT_EQ(strict.stats().solves, 2u);
}

// Concurrent iso hits on one entry share its labeling: the first hit
// computes it under call_once, every other hit waits for or reuses it.
TEST(ScheduleService, ConcurrentIsoHitsLabelEntryOnce) {
  const Graph graph = BuiltinOrDie("kary:2,5");
  const Weight budget = MinValidBudget(graph) + 16;
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.source, ServeSource::kSolved);

  constexpr std::size_t kThreads = 8;
  std::vector<Graph> permuted;
  for (std::size_t t = 0; t < kThreads; ++t) {
    permuted.push_back(PermuteGraph(graph, 0x150 + t));
    ASSERT_NE(ToBinary(permuted.back()), ToBinary(graph));
  }
  const std::uint64_t labelings_before =
      obs::ReadMetric("service.iso_labelings");
  std::vector<ServiceResponse> responses(kThreads);
  {
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ServiceRequest iso_request;
        iso_request.graph = &permuted[t];
        iso_request.budget = budget;
        start.arrive_and_wait();
        responses[t] = service.Serve(iso_request);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    const ServiceResponse& response = responses[t];
    ASSERT_TRUE(response.ok) << "thread " << t;
    EXPECT_EQ(response.source, ServeSource::kIsoCacheHit) << "thread " << t;
    const SimResult sim =
        Simulate(permuted[t], budget, response.result.schedule);
    EXPECT_TRUE(sim.valid) << "thread " << t;
    EXPECT_EQ(sim.cost, cold.result.cost) << "thread " << t;
  }
  EXPECT_EQ(obs::ReadMetric("service.iso_labelings") - labelings_before, 1u);
  EXPECT_EQ(service.stats().iso_hits, kThreads);
  EXPECT_EQ(service.stats().solves, 1u);
}

// The event counters are lock-free tallies: however concurrent Serves
// interleave, every well-formed request is counted once, as a byte hit,
// an iso hit or a miss (single-flight followers count as misses).
TEST(ScheduleService, ConcurrentServesKeepCountersConsistent) {
  const Graph tree = BuiltinOrDie("kary:2,3");
  const Graph tree_iso = PermuteGraph(tree, 0x5eed);
  const Graph dwt = BuiltinOrDie("dwt:4,1");
  const std::vector<ServiceRequest> pool = [&] {
    std::vector<ServiceRequest> requests(3);
    requests[0].graph = &tree;
    requests[0].budget = MinValidBudget(tree) + 4;
    requests[1].graph = &tree_iso;
    requests[1].budget = MinValidBudget(tree) + 4;
    requests[2].graph = &dwt;
    requests[2].budget = MinValidBudget(dwt) + 2;
    return requests;
  }();
  ScheduleService service;

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 24;
  std::vector<std::size_t> failures(kThreads, 0);
  {
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          if (!service.Serve(pool[(t + i) % pool.size()]).ok) ++failures[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.iso_hits + stats.misses);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GE(stats.misses, stats.solves);
}

TEST(ScheduleService, DeriveKeyIsIsoInvariant) {
  const Graph graph = BuiltinOrDie("random:3,4,9");
  const Graph permuted = PermuteGraph(graph, 0x1234);
  EXPECT_EQ(ScheduleService::DeriveKey(graph, 64),
            ScheduleService::DeriveKey(permuted, 64));
  EXPECT_NE(ScheduleService::DeriveKey(graph, 64),
            ScheduleService::DeriveKey(graph, 65));
}

TEST(ScheduleService, DeadlineBoundedResultsAreNeverCached) {
  const Graph graph = BuiltinOrDie("random:3,4,11");
  ServiceRequest request;
  request.graph = &graph;
  request.budget = MinValidBudget(graph) + 8;
  request.deadline_ms = 50;
  ScheduleService service;
  const ServiceResponse first = service.Serve(request);
  ASSERT_TRUE(first.ok);  // anytime contract: always an incumbent
  EXPECT_EQ(service.stats().cache_entries, 0u);
  // The same request again re-solves: nothing was admitted.
  const ServiceResponse second = service.Serve(request);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(service.stats().solves, 2u);
}

TEST(ScheduleService, InfeasibleVerdictsAreCachedToo) {
  const Graph graph = BuiltinOrDie("random:2,3,5");
  ServiceRequest request;
  request.graph = &graph;
  request.budget = 1;  // below any node weight: provably infeasible
  ScheduleService service;
  const ServiceResponse cold = service.Serve(request);
  EXPECT_FALSE(cold.ok);
  EXPECT_FALSE(cold.error.empty());
  const ServiceResponse hit = service.Serve(request);
  EXPECT_FALSE(hit.ok);
  EXPECT_EQ(hit.source, ServeSource::kCacheHit);
  EXPECT_EQ(service.stats().solves, 1u);
}

TEST(ScheduleService, EvictsByByteBudget) {
  ServiceOptions options;
  options.cache_bytes = 4096;
  options.cache_shards = 1;
  ScheduleService service(options);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph graph = BuiltinOrDie("random:2,3," + std::to_string(seed));
    ServiceRequest request;
    request.graph = &graph;
    request.budget = MinValidBudget(graph) + 8;
    const ServiceResponse response = service.Serve(request);
    ASSERT_TRUE(response.ok) << "seed " << seed;
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LT(stats.cache_entries, 12u);
  EXPECT_LE(stats.cache_bytes, 4096u);
}

TEST(ScheduleService, ServeBatchCollapsesDuplicatesAndMapsByIndex) {
  const Graph a = BuiltinOrDie("random:3,4,31");
  const Graph b = BuiltinOrDie("random:3,4,32");
  const Weight budget_a = MinValidBudget(a) + 8;
  const Weight budget_b = MinValidBudget(b) + 8;

  std::vector<ServiceRequest> requests(4);
  requests[0].graph = &a;
  requests[0].budget = budget_a;
  requests[1].graph = &b;
  requests[1].budget = budget_b;
  requests[2].graph = &a;
  requests[2].budget = budget_a;  // duplicate of [0]
  requests[3].graph = nullptr;    // malformed
  requests[3].budget = 64;

  ScheduleService service;
  const std::vector<ServiceResponse> responses = service.ServeBatch(requests);
  ASSERT_EQ(responses.size(), 4u);
  ASSERT_TRUE(responses[0].ok);
  ASSERT_TRUE(responses[1].ok);
  ASSERT_TRUE(responses[2].ok);
  EXPECT_FALSE(responses[3].ok);
  EXPECT_FALSE(responses[3].error.empty());

  EXPECT_EQ(responses[2].source, ServeSource::kDedup);
  EXPECT_EQ(ToBinary(responses[2].result.schedule),
            ToBinary(responses[0].result.schedule));
  EXPECT_NE(ToBinary(responses[1].result.schedule),
            ToBinary(responses[0].result.schedule));
  EXPECT_EQ(service.stats().solves, 2u);
  EXPECT_GE(service.stats().dedup_shared, 1u);
}

// An iso answer is memoized under the request's own labeling: the same
// relabeling asked again is an exact hit with the first reply's bytes,
// with no further labeling, iso hit or solve.
TEST(ScheduleService, RepeatedRelabelingIsAnExactHit) {
  const Graph graph = BuiltinOrDie("kary:3,3");
  const Graph permuted = PermuteGraph(graph, 0x3e3e);
  const Weight budget = MinValidBudget(graph) + 16;
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);

  ServiceRequest iso_request;
  iso_request.graph = &permuted;
  iso_request.budget = budget;
  const ServiceResponse first = service.Serve(iso_request);
  ASSERT_TRUE(first.ok);
  ASSERT_EQ(first.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(service.stats().iso_memo_inserts, 1u);
  const std::uint64_t labelings = obs::ReadMetric("service.iso_labelings");
  const ServiceStats before = service.stats();

  const ServiceResponse repeat = service.Serve(iso_request);
  ASSERT_TRUE(repeat.ok);
  EXPECT_EQ(repeat.source, ServeSource::kCacheHit);
  EXPECT_EQ(ToBinary(repeat.result.schedule), ToBinary(first.result.schedule));
  EXPECT_EQ(repeat.result.cost, first.result.cost);
  EXPECT_EQ(repeat.result.lower_bound, first.result.lower_bound);
  EXPECT_EQ(repeat.winner, first.winner);
  EXPECT_EQ(repeat.key, cold.key);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.iso_hits, before.iso_hits);
  EXPECT_EQ(after.solves, before.solves);
  EXPECT_EQ(after.iso_memo_inserts, before.iso_memo_inserts);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(obs::ReadMetric("service.iso_labelings"), labelings);
  const SimResult sim = Simulate(permuted, budget, repeat.result.schedule);
  EXPECT_TRUE(sim.valid);
  EXPECT_EQ(sim.cost, cold.result.cost);
}

// Names are not part of the first-level key: no answer depends on them.
TEST(ScheduleService, GraphsDifferingOnlyInNamesHitExactly) {
  const Graph graph = BuiltinOrDie("random:3,4,17");
  GraphBuilder renamed_builder;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    renamed_builder.AddNode(graph.weight(v), "n" + std::to_string(v));
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId c : graph.children(v)) renamed_builder.AddEdge(v, c);
  }
  const Graph renamed = renamed_builder.BuildOrDie();
  ASSERT_NE(ToBinary(renamed), ToBinary(graph));
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);
  request.graph = &renamed;
  const ServiceResponse hit = service.Serve(request);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.source, ServeSource::kCacheHit);
  EXPECT_EQ(ToBinary(hit.result.schedule), ToBinary(cold.result.schedule));
  EXPECT_EQ(service.stats().solves, 1u);
}

// Same weights, different edges: never one answer for both, whether the
// two arrive one after the other or in one batch.
TEST(ScheduleService, SameWeightsDifferentEdgesNeverShareAnAnswer) {
  const Graph graph = BuiltinOrDie("random:3,4,23");
  // Move one edge: keep every weight, change one parent of the last node.
  const NodeId last = graph.num_nodes() - 1;
  ASSERT_FALSE(graph.parents(last).empty());
  const NodeId dropped = graph.parents(last).front();
  NodeId added = kInvalidNode;
  for (NodeId u = 0; u < last && added == kInvalidNode; ++u) {
    const auto parents = graph.parents(last);
    if (u != dropped && !graph.is_sink(u) &&
        std::find(parents.begin(), parents.end(), u) == parents.end()) {
      added = u;
    }
  }
  ASSERT_NE(added, kInvalidNode);
  GraphBuilder builder;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    builder.AddNode(graph.weight(v), graph.name(v));
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId c : graph.children(v)) {
      if (v != dropped || c != last) builder.AddEdge(v, c);
    }
  }
  builder.AddEdge(added, last);
  const auto built = builder.Build();
  ASSERT_TRUE(built.ok) << built.error;
  const Graph& rewired = built.graph;
  ASSERT_EQ(rewired.weights(), graph.weights());
  ASSERT_FALSE(rewired.SameWeightsAndEdges(graph));

  const Weight budget = MinValidBudget(graph) + 8;
  std::vector<ServiceRequest> requests(2);
  requests[0].graph = &graph;
  requests[0].budget = budget;
  requests[1].graph = &rewired;
  requests[1].budget = budget;
  for (const bool batched : {false, true}) {
    ScheduleService service;
    std::vector<ServiceResponse> responses;
    if (batched) {
      responses = service.ServeBatch(requests);
    } else {
      for (const ServiceRequest& r : requests) {
        responses.push_back(service.Serve(r));
      }
    }
    ASSERT_EQ(responses.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(responses[i].ok) << "batched=" << batched << " " << i;
      EXPECT_NE(responses[i].source, ServeSource::kCacheHit);
      EXPECT_NE(responses[i].source, ServeSource::kDedup);
      const SimResult sim = Simulate(*requests[i].graph, budget,
                                     responses[i].result.schedule);
      EXPECT_TRUE(sim.valid) << "batched=" << batched << " " << i;
      EXPECT_EQ(sim.cost, responses[i].result.cost);
    }
    EXPECT_EQ(service.stats().cache_hits, 0u);
  }
}

// Infeasibility transfers across isomorphism, and that answer is memoized
// like a renamed schedule.
TEST(ScheduleService, InfeasibleIsomorphAnswerIsMemoized) {
  const Graph graph = BuiltinOrDie("random:2,3,5");
  const Graph permuted = PermuteGraph(graph, 0x1f);
  ASSERT_NE(ToBinary(permuted), ToBinary(graph));
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = 1;  // below any node weight: provably infeasible
  ASSERT_FALSE(service.Serve(request).ok);
  request.graph = &permuted;
  const ServiceResponse iso = service.Serve(request);
  EXPECT_FALSE(iso.ok);
  EXPECT_FALSE(iso.error.empty());
  EXPECT_EQ(iso.source, ServeSource::kIsoCacheHit);
  const ServiceResponse repeat = service.Serve(request);
  EXPECT_FALSE(repeat.ok);
  EXPECT_EQ(repeat.source, ServeSource::kCacheHit);
  EXPECT_EQ(repeat.error, iso.error);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.iso_hits, 1u);
  EXPECT_EQ(stats.iso_memo_inserts, 1u);
  EXPECT_EQ(stats.solves, 1u);
}

// A cache too small for the pool keeps evicting solved entries, their iso
// aliases and memoized answers; every answer is still simulator-valid and
// every request counted once.
TEST(ScheduleService, TinyCacheEvictingAliasesAndMemosStaysValid) {
  std::vector<Graph> graphs;
  for (const char* spec : {"kary:2,3", "random:2,3,3", "dwt:4,1"}) {
    graphs.push_back(BuiltinOrDie(spec));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      graphs.push_back(PermuteGraph(graphs[graphs.size() - seed], 0x77 + seed));
    }
  }
  ServiceOptions options;
  options.cache_bytes = 2048;
  options.cache_shards = 1;
  ScheduleService service(options);
  std::mt19937_64 rng(0x7171);
  for (int i = 0; i < 120; ++i) {
    const Graph& g = graphs[rng() % graphs.size()];
    ServiceRequest request;
    request.graph = &g;
    request.budget = MinValidBudget(g) + 4;
    const ServiceResponse response = service.Serve(request);
    ASSERT_TRUE(response.ok) << "request " << i;
    const SimResult sim = Simulate(g, request.budget, response.result.schedule);
    EXPECT_TRUE(sim.valid) << "request " << i;
    EXPECT_EQ(sim.cost, response.result.cost) << "request " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 120u);
  EXPECT_EQ(stats.requests, stats.cache_hits + stats.iso_hits + stats.misses);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_GT(stats.iso_memo_inserts, 0u);
  EXPECT_LE(stats.cache_bytes, 2048u);
}

TEST(ScheduleService, RejectsMalformedRequests) {
  ScheduleService service;
  ServiceRequest no_graph;
  no_graph.budget = 64;
  EXPECT_FALSE(service.Serve(no_graph).ok);

  const Graph graph = BuiltinOrDie("random:2,3,5");
  ServiceRequest no_budget;
  no_budget.graph = &graph;
  no_budget.budget = 0;
  const ServiceResponse response = service.Serve(no_budget);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.stats().solves, 0u);
}

}  // namespace
}  // namespace wrbpg
