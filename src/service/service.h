// Scheduling-as-a-service front end (DESIGN.md §13).
//
// Production deployments ask for schedules of the SAME graphs over and
// over — the parameterized dataflow families are solved once per shape
// and served millions of times. ScheduleService turns the solver stack
// into that shape:
//
//   1. Key derivation, two levels. The first key is a cheap hash of the
//      request exactly as labeled — weights and parent lists, folded with
//      the budget; node names are left out because no answer depends on
//      them. It finds answers for requests with identical weights and
//      edges, and every such hit is confirmed by full graph equality,
//      never by the hash alone. Only when it misses does the service
//      compute the second, iso-invariant key: ganalysis::HashGraph
//      folded with the budget (ServiceResponse::key, DeriveKey). Engine
//      choice and thread count are deliberately NOT part of either key —
//      the determinism contract (DESIGN.md §8/§9) makes every completed
//      solve a pure function of (graph, budget), so results computed by
//      any engine at any thread count are interchangeable. Deadlines are
//      not in the key either, because the cache only ever admits
//      deadline-independent results (below).
//
//   2. Sharded LRU schedule cache (util/lru.h) with a byte-budget
//      eviction policy. A solved entry is stored under both keys and
//      accounted under each (the wrbpg-bin-v1 encoded sizes of its graph
//      and schedule, core/binio.h). A hit whose stored graph has the
//      request's weights and edges serves the stored result unchanged —
//      bit-identical to the cold solve by construction. A hit whose
//      stored graph is a permuted ISOMORPH of the request's (same
//      iso-invariant key, different node ids) is served by renaming the
//      stored schedule through an explicitly verified isomorphism
//      (FindIsomorphism) and re-validating it in the simulator — same
//      cost, provably valid, but node ids follow the request's labeling.
//      That verified answer (or the transferred infeasibility) is then
//      memoized under the request's first-level key, so the same
//      labeling asked again is an exact hit that returns the same bytes.
//      Each entry computes its stored graph's labeling once, on its first
//      iso hit, and the request's labeling comes from the refinement that
//      produced its iso key, so an iso hit refines the request once.
//
//   3. Single-flight dedup (util/singleflight.h): concurrent identical
//      requests (exact graph bytes + budget) trigger exactly ONE solve;
//      the followers share the leader's result and are counted as
//      deduplicated.
//
//   4. Misses dispatch through the robust fallback chain
//      (robust/robust_scheduler.h), so every response honors the PR 6
//      anytime contract: a deadline, cancellation, or memory cap still
//      yields an incumbent schedule plus a certified optimality gap,
//      never nothing. ServeBatch additionally runs a deadline-aware
//      batching executor on the util ThreadPool: in-batch requests with
//      identical weights, edges, budget and deadline collapse to one
//      solve and distinct ones are dispatched earliest-deadline-first.
//
// Cache admission: only deadline-INDEPENDENT results are stored — the
// solve must have run with NO deadline (under a deadline even a
// kComplete-terminated winner is suspect: which robust-chain stage won is
// wall-clock-dependent) and terminated complete/optimal (deterministic by
// the contract) or memory-cap (deterministic at a fixed configuration).
// A deadline-bounded result is served to its requester but never cached,
// so a generous-deadline client can never be poisoned by a
// stingy-deadline client's incumbent, and a cached entry is valid for
// ANY later deadline.
//
// Observability: service.* counters (requests, hits, iso hits, misses,
// dedup shares, solves, solved-entry inserts and rejections, iso memo
// inserts, entry labelings) and
// service.serve/solve spans (wrbpg-obs-v1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/graph.h"
#include "robust/robust_scheduler.h"
#include "schedulers/scheduler.h"
#include "util/lru.h"
#include "util/singleflight.h"
#include "util/thread_pool.h"

namespace wrbpg {

// How a response was produced.
enum class ServeSource : std::uint8_t {
  kSolved = 0,    // cold: this request ran the solver chain
  kCacheHit,      // served from cache, identical weights and edges
  kIsoCacheHit,   // served from cache via a verified isomorphism renaming
  kDedup,         // shared a concurrent identical request's solve
};

const char* ToString(ServeSource source);

struct ServiceRequest {
  // Borrowed; must outlive the Serve/ServeBatch call.
  const Graph* graph = nullptr;
  Weight budget = 0;
  // Per-request solve deadline; <= 0 falls back to
  // ServiceOptions::default_deadline_ms (and 0 there means unbounded).
  double deadline_ms = 0;
};

struct ServiceResponse {
  bool ok = false;     // a valid schedule was produced
  std::string error;   // infeasibility / failure detail when !ok
  // Schedule + the anytime triple (cost / lower_bound / optimality_gap /
  // termination), exactly as the winning stage reported it.
  ScheduleResult result;
  std::string winner;  // robust-chain stage that produced the schedule
  ServeSource source = ServeSource::kSolved;
  std::uint64_t key = 0;   // iso-invariant cache key (DeriveKey)
  double latency_ms = 0;   // wall time inside the service for this request
};

struct ServiceOptions {
  // Total byte budget of the schedule cache; entries account their
  // wrbpg-bin-v1 encoded graph + schedule size under each key they are
  // stored under. 0 disables caching.
  std::size_t cache_bytes = 64ull << 20;
  std::size_t cache_shards = 16;
  // Serve permuted isomorphs from cache by verified renaming. Off, an
  // isomorph of a cached graph is a plain miss (and re-solved).
  bool iso_hits = true;
  // Deadline applied to requests that carry none.
  double default_deadline_ms = 0;
  // Worker threads for ServeBatch dispatch; 0 = DefaultSearchThreads().
  std::size_t threads = 0;
  // Base options for cold solves (deadline_ms is overridden per request;
  // threads flows through for differential tests).
  RobustOptions robust;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;      // identical weights and edges
  std::uint64_t iso_hits = 0;        // isomorph-renamed hits
  std::uint64_t misses = 0;
  std::uint64_t dedup_shared = 0;    // responses served as kDedup
  std::uint64_t solves = 0;          // solver-chain executions
  // Verified iso answers stored under the request's labeled key.
  std::uint64_t iso_memo_inserts = 0;
  // Keys stored: a solved entry sits under two, a memoized iso answer
  // under one, and each key accounts the entry's bytes.
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_rejected = 0;  // entries larger than a shard slice
};

class ScheduleService {
 public:
  explicit ScheduleService(const ServiceOptions& options = {});

  // Serves one request: cache lookup (labeled key, then iso key: exact,
  // then isomorph), then a single-flight deduplicated cold solve on a
  // miss. Thread-safe.
  ServiceResponse Serve(const ServiceRequest& request);

  // Deadline-aware batching executor: in-batch requests with identical
  // weights, edges, budget and deadline collapse onto one Serve, distinct
  // ones dispatch onto the pool earliest-effective-deadline-first.
  // responses[i] answers requests[i].
  std::vector<ServiceResponse> ServeBatch(
      const std::vector<ServiceRequest>& requests);

  ServiceStats stats() const;

  // Drops every cached entry (counters are preserved). For tests and the
  // serve verb's --no-cache mode.
  void ClearCache();

  // The iso-invariant cache key Serve derives for (graph, budget) when
  // its first-level probe misses, and reports as ServiceResponse::key —
  // exposed so tests and tools can reason about collisions and
  // iso-invariance.
  static std::uint64_t DeriveKey(const Graph& graph, Weight budget);

 private:
  struct CacheEntry;

  std::shared_ptr<const CacheEntry> Solve(const ServiceRequest& request,
                                          double deadline_ms,
                                          std::uint64_t key,
                                          std::uint64_t labeled);

  ServiceOptions options_;
  ShardedLruCache<std::uint64_t, CacheEntry> cache_;
  SingleFlight<std::string, CacheEntry> flights_;
  ThreadPool pool_;
  // ServiceStats' event counters. Relaxed: each is a monotone tally that
  // orders nothing, and stats() copies them one by one.
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> iso_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> dedup_shared_{0};
  std::atomic<std::uint64_t> solves_{0};
  std::atomic<std::uint64_t> iso_memo_inserts_{0};
};

}  // namespace wrbpg
