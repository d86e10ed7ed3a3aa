#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "core/binio.h"
#include "core/simulator.h"
#include "ganalysis/canonical.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace wrbpg {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t Mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Only deadline-independent results may enter the cache. A solve that ran
// under ANY deadline is suspect even when the winning stage itself reports
// kComplete — which stage won the robust chain is wall-clock-dependent
// once a deadline truncates the exact stage — so admission requires the
// solve to have run unbounded AND a deterministic termination: complete
// and optimal results are pure functions of (graph, budget) by the
// determinism contract, and a memory-cap stop is deterministic for a
// fixed configuration.
bool CacheAdmissible(double deadline_ms, const ScheduleResult& result) {
  if (deadline_ms > 0) return false;
  switch (result.termination) {
    case Termination::kComplete:
    case Termination::kOptimal:
    case Termination::kMemoryCap:
      return true;
    case Termination::kDeadline:
    case Termination::kCancelled:
      return false;
  }
  return false;
}

std::uint64_t FoldBudget(std::uint64_t graph_hash, Weight budget) {
  // Iso-invariant graph identity folded with the budget. Engine, thread
  // count, and deadline are deliberately excluded — see service.h.
  return Mix64(graph_hash ^ Mix64(static_cast<std::uint64_t>(budget) +
                                  0x9e3779b97f4a7c15ULL));
}

// The first-level key: the request exactly as labeled. One multiply per
// word over the weights and the parent lists, each list led by its length,
// then folded with the budget. Names are left out: no answer depends on
// them. Both key levels share one LRU; a collision with either costs only
// the equality check that confirms every hit.
std::uint64_t LabeledKey(const Graph& graph, Weight budget) {
  constexpr std::uint64_t kMul = 0x517cc1b727220a95ULL;
  std::uint64_t h = 0x6c62272e07bb0142ULL ^ graph.num_nodes();
  auto add = [&](std::uint64_t word) {
    h = (((h << 5) | (h >> 59)) ^ word) * kMul;
  };
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto parents = graph.parents(v);
    add(static_cast<std::uint64_t>(graph.weight(v)));
    add(parents.size());
    for (const NodeId p : parents) add(p);
  }
  return Mix64(h ^ Mix64(static_cast<std::uint64_t>(budget)));
}

}  // namespace

const char* ToString(ServeSource source) {
  switch (source) {
    case ServeSource::kSolved: return "solved";
    case ServeSource::kCacheHit: return "cache-hit";
    case ServeSource::kIsoCacheHit: return "iso-cache-hit";
    case ServeSource::kDedup: return "dedup";
  }
  return "unknown";
}

// One cached (or in-flight) answer. The stored graph pins the exact node
// labeling the answer holds under: weight-and-edge equality against it
// confirms exact hits, and for a solved entry it anchors isomorphism
// renaming for permuted requests.
struct ScheduleService::CacheEntry {
  bool ok = false;          // the answer is a valid schedule
  std::string error;        // infeasibility detail when !ok
  Graph graph;              // the graph the answer is for, as labeled
  Weight budget = 0;
  std::uint64_t key = 0;    // iso-invariant key (ServiceResponse::key)
  ScheduleResult result;
  std::string winner;
  std::size_t accounted_bytes = 0;

  // Bytes the cache accounts for this entry under each key it is stored
  // under: the encoded sizes of its graph and schedule plus the struct.
  void Account() {
    accounted_bytes =
        BinarySize(graph) + BinarySize(result.schedule) + sizeof(CacheEntry);
  }

  // The answer serves `request` unchanged: same budget, same weights and
  // edges under the same ids.
  bool Answers(const ServiceRequest& request) const {
    return budget == request.budget &&
           graph.SameWeightsAndEdges(*request.graph);
  }

  // This answer renamed onto `request`, a permuted isomorph of `graph`
  // whose refinement is given, and re-simulated; null when no isomorphism
  // is verified or the renamed schedule fails the simulator.
  std::shared_ptr<const CacheEntry> RenamedFor(
      const ServiceRequest& request, const ColorRefinement& refinement) const {
    const auto map =
        FindIsomorphism(graph, labels(), *request.graph,
                        DeterministicLabeling(*request.graph, refinement));
    if (!map) return nullptr;
    auto renamed = std::make_shared<CacheEntry>();
    renamed->ok = ok;
    renamed->error = error;
    renamed->graph = *request.graph;
    renamed->budget = request.budget;
    renamed->key = key;
    renamed->result = result;
    renamed->winner = winner;
    // Infeasibility transfers across isomorphism as it is: permuting node
    // ids changes no weight and no budget.
    if (ok) {
      std::vector<Move> moves = result.schedule.moves();
      for (Move& move : moves) move.node = (*map)[move.node];
      renamed->result.schedule = Schedule(std::move(moves));
      // The renaming is provably cost-preserving, but the serve path
      // re-verifies anyway: a schedule leaves the service only through
      // the simulator.
      const SimResult sim =
          Simulate(*request.graph, request.budget, renamed->result.schedule);
      if (!sim.valid || sim.cost != result.cost) return nullptr;
    }
    renamed->Account();
    return renamed;
  }

  // DeterministicLabeling(graph), computed once on the first iso hit: the
  // stored graph never changes, so later hits label only the request.
  // Lazy, so inserts and entries never matched by an isomorph pay nothing.
  const std::vector<std::uint32_t>& labels() const {
    std::call_once(labels_once_, [this] {
      static const obs::Counter labelings("service.iso_labelings");
      labelings.Add(1);
      labels_ = DeterministicLabeling(graph);
    });
    return labels_;
  }

 private:
  mutable std::once_flag labels_once_;
  mutable std::vector<std::uint32_t> labels_;
};

ScheduleService::ScheduleService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_bytes, options.cache_shards),
      pool_(ResolveThreadCount(options.threads)) {}

std::uint64_t ScheduleService::DeriveKey(const Graph& graph, Weight budget) {
  return FoldBudget(HashGraph(graph), budget);
}

std::shared_ptr<const ScheduleService::CacheEntry> ScheduleService::Solve(
    const ServiceRequest& request, double deadline_ms, std::uint64_t key,
    std::uint64_t labeled) {
  const obs::ScopedSpan span("service.solve");
  static const obs::Counter solves("service.solves");
  solves.Add(1);
  solves_.fetch_add(1, std::memory_order_relaxed);

  RobustOptions robust = options_.robust;
  robust.deadline_ms = deadline_ms;
  const RobustResult solved =
      RobustScheduler(*request.graph).Run(request.budget, robust);

  auto entry = std::make_shared<CacheEntry>();
  entry->graph = *request.graph;
  entry->budget = request.budget;
  entry->key = key;
  entry->result = solved.result;
  entry->winner = solved.winner;
  entry->ok = solved.result.feasible;
  if (!entry->ok) {
    entry->error = "infeasible: no stage produced a valid schedule under " +
                   std::to_string(request.budget) + " bits";
  }
  entry->Account();

  if (options_.cache_bytes > 0 && CacheAdmissible(deadline_ms, entry->result)) {
    static const obs::Counter inserts("service.cache_inserts");
    static const obs::Counter rejected("service.cache_insert_rejected");
    // Under the request's labeled key for exact hits, and under the
    // iso-invariant key so permuted isomorphs can find it. Each key
    // accounts the entry's bytes.
    if (cache_.Put(labeled, entry, entry->accounted_bytes)) {
      inserts.Add(1);
      cache_.Put(key, entry, entry->accounted_bytes);
    } else {
      rejected.Add(1);
    }
  }
  return entry;
}

ServiceResponse ScheduleService::Serve(const ServiceRequest& request) {
  const obs::ScopedSpan span("service.serve");
  static const obs::Counter requests("service.requests");
  static const obs::Counter hits("service.cache_hits");
  static const obs::Counter iso_hits("service.cache_hits_iso");
  static const obs::Counter memo_inserts("service.iso_memo_inserts");
  static const obs::Counter misses("service.cache_misses");
  static const obs::Counter dedups("service.dedup_shared");
  requests.Add(1);
  const Clock::time_point start = Clock::now();

  ServiceResponse response;
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (request.graph == nullptr || request.budget <= 0) {
    response.error = "malformed request: graph and a positive budget are "
                     "required";
    response.latency_ms = MsSince(start);
    return response;
  }

  auto respond_from = [&](const std::shared_ptr<const CacheEntry>& entry,
                          ServeSource source) {
    response.ok = entry->ok;
    response.error = entry->error;
    response.result = entry->result;
    response.winner = entry->winner;
    response.source = source;
    response.key = entry->key;
    response.latency_ms = MsSince(start);
    return response;
  };
  auto count_hit = [&] {
    hits.Add(1);
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  };

  // First level: the request exactly as labeled. Confirmed by full
  // weight-and-edge equality, never by the key alone.
  const std::uint64_t labeled = LabeledKey(*request.graph, request.budget);
  if (options_.cache_bytes > 0) {
    if (const auto entry = cache_.Get(labeled);
        entry && entry->Answers(request)) {
      count_hit();
      return respond_from(entry, ServeSource::kCacheHit);
    }
  }

  // Second level: the iso-invariant key. One refinement serves both the
  // key and, on an iso probe, the request's labeling.
  const ColorRefinement refinement = RefineColors(*request.graph);
  const std::uint64_t key =
      FoldBudget(HashGraph(*request.graph, refinement), request.budget);
  response.key = key;
  if (options_.cache_bytes > 0) {
    if (const auto entry = cache_.Get(key)) {
      if (entry->Answers(request)) {
        // The labeled key was evicted while this entry stayed reachable
        // under the iso key: admit it under the labeled key again.
        cache_.Put(labeled, entry, entry->accounted_bytes);
        count_hit();
        return respond_from(entry, ServeSource::kCacheHit);
      }
      // Same iso-invariant key, different graph: either a permuted
      // isomorph (serve by verified renaming) or a genuine hash collision
      // (fall through to a cold solve). The verified answer is memoized
      // under the request's labeled key, so the same labeling next time
      // is an exact hit.
      if (options_.iso_hits && entry->budget == request.budget) {
        if (const auto renamed = entry->RenamedFor(request, refinement)) {
          if (cache_.Put(labeled, renamed, renamed->accounted_bytes)) {
            memo_inserts.Add(1);
            iso_memo_inserts_.fetch_add(1, std::memory_order_relaxed);
          }
          iso_hits.Add(1);
          iso_hits_.fetch_add(1, std::memory_order_relaxed);
          return respond_from(renamed, ServeSource::kIsoCacheHit);
        }
      }
    }
  }

  misses.Add(1);
  misses_.fetch_add(1, std::memory_order_relaxed);
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  // Single-flight over the EXACT request identity (graph bytes + budget
  // + effective deadline): concurrent identical requests run one solve;
  // requests differing only in deadline stay separate flights, because
  // their anytime results legitimately differ.
  const std::string flight_key = ToBinary(*request.graph) + '|' +
                                 std::to_string(request.budget) + '|' +
                                 std::to_string(deadline_ms);
  const auto outcome = flights_.Do(flight_key, [&] {
    return Solve(request, deadline_ms, key, labeled);
  });
  if (!outcome.leader) {
    dedups.Add(1);
    dedup_shared_.fetch_add(1, std::memory_order_relaxed);
  }
  return respond_from(outcome.value, outcome.leader ? ServeSource::kSolved
                                                    : ServeSource::kDedup);
}

std::vector<ServiceResponse> ScheduleService::ServeBatch(
    const std::vector<ServiceRequest>& requests) {
  const obs::ScopedSpan span("service.batch");
  std::vector<ServiceResponse> responses(requests.size());

  // Collapse identical in-batch requests onto one dispatch and order the
  // distinct solves earliest-effective-deadline-first, so the tightest
  // deadlines reach the pool before slack ones queue ahead of them.
  struct Group {
    std::vector<std::size_t> indices;  // requests answered by this solve
    double effective_deadline_ms = 0;  // 0 = unbounded, dispatched last
  };
  // Candidate groups by labeled key; membership is confirmed by the same
  // equality that confirms an exact cache hit, plus the deadline.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups_of;
  std::vector<Group> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequest& request = requests[i];
    if (request.graph == nullptr || request.budget <= 0) {
      // Malformed requests answer inline (Serve produces the error).
      responses[i] = Serve(request);
      continue;
    }
    const double deadline_ms = request.deadline_ms > 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
    std::vector<std::size_t>& candidates =
        groups_of[LabeledKey(*request.graph, request.budget)];
    const auto same = std::find_if(
        candidates.begin(), candidates.end(), [&](std::size_t g) {
          const ServiceRequest& leader = requests[groups[g].indices.front()];
          return groups[g].effective_deadline_ms == deadline_ms &&
                 leader.budget == request.budget &&
                 leader.graph->SameWeightsAndEdges(*request.graph);
        });
    if (same != candidates.end()) {
      groups[*same].indices.push_back(i);
    } else {
      candidates.push_back(groups.size());
      groups.push_back(Group{{i}, deadline_ms});
    }
  }
  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double da = groups[a].effective_deadline_ms;
                     const double db = groups[b].effective_deadline_ms;
                     if ((da > 0) != (db > 0)) return da > 0;  // bounded first
                     return da < db;
                   });

  TaskGroup tasks(pool_);
  std::vector<ServiceResponse> leader(groups.size());
  for (const std::size_t g : order) {
    tasks.Submit([this, &leader, &groups, &requests, g] {
      leader[g] = Serve(requests[groups[g].indices.front()]);
    });
  }
  tasks.Wait();

  static const obs::Counter batch_dedup("service.batch_dedup_shared");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    for (std::size_t k = 0; k < group.indices.size(); ++k) {
      responses[group.indices[k]] = leader[g];
      if (k > 0) {
        // In-batch duplicates share the leader's answer without touching
        // the cache or a flight; account them like single-flight shares.
        responses[group.indices[k]].source = ServeSource::kDedup;
        batch_dedup.Add(1);
        requests_.fetch_add(1, std::memory_order_relaxed);
        dedup_shared_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return responses;
}

ServiceStats ScheduleService::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.iso_hits = iso_hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.dedup_shared = dedup_shared_.load(std::memory_order_relaxed);
  out.solves = solves_.load(std::memory_order_relaxed);
  out.iso_memo_inserts = iso_memo_inserts_.load(std::memory_order_relaxed);
  const auto cache = cache_.stats();
  out.cache_entries = cache.entries;
  out.cache_bytes = cache.bytes;
  out.cache_evictions = cache.evictions;
  out.cache_rejected = cache.rejected;
  return out;
}

void ScheduleService::ClearCache() { cache_.Clear(); }

}  // namespace wrbpg
