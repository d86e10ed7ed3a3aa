// serve-hot: nproc closed-loop clients share one ScheduleService.
//
// Requests are a seeded Zipf draw over a fixed pool of 48 (shape, budget)
// pairs: recognized dwt/kary graphs of 40-341 nodes and unrecognized
// mvm/butterfly/random graphs above exact_max_nodes, so a cold solve is a
// DP or a heuristic, never exponential search. 40% of pool requests come
// under one of a fixed set of four node relabelings (the isomorph-hit
// path) and 5% are never-seen random graphs (cheap cold solves that insert
// into the cache). Requests arrive as wrbpg-bin-v1 bytes, decoded on the timed
// path; the reply schedule is encoded back to bytes on the timed path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <thread>

#include "bench.h"
#include "core/analysis.h"
#include "core/binio.h"
#include "core/simulator.h"
#include "dataflows/random_dag.h"
#include "ganalysis/bounds.h"
#include "ganalysis/canonical.h"
#include "service/service.h"

namespace perfbench {
namespace {

using wrbpg::ScheduleService;
using wrbpg::ServeSource;

// Shapes in Zipf-rank order, alternating recognized and unrecognized so
// the popular head mixes DP, iso and heuristic answers. Budgets are
// MinValidBudget plus these 16-bit-word offsets.
constexpr const char* kShapes[] = {
    "dwt:16,2",  "mvm:4,4",       "kary:2,5", "butterfly:8",
    "dwt:32,3",  "random:6,8,3",  "kary:3,4", "butterfly:16",
    "dwt:64,4",  "random:8,10,5", "kary:2,7", "mvm:6,6",
    "dwt:128,2", "butterfly:32",  "kary:4,4", "random:10,12,7",
};
constexpr Weight kBudgetOffsets[] = {0, 2, 6};  // x16 bits
constexpr int kRelabelings = 4;
constexpr double kRelabeledShare = 0.40;
constexpr double kNeverSeenShare = 0.05;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kStreamLength = 1 << 17;
constexpr std::size_t kNeverSeen = 7000;
// The traced phase re-runs the hash and the isomorphism search outside
// Serve to time them; sampling one request in eight keeps that extra work
// from dominating the tracing overhead.
constexpr std::uint64_t kProbeEvery = 8;

struct Variant {
  std::string bytes;   // the request as it arrives
  Graph graph;         // decoded once at setup, for the checks
  Weight budget = 0;
  int pool = -1;       // pool entry; -1 for a never-seen graph
};

struct Reply {
  std::string bytes;
  Weight cost = 0;
  Weight lower_bound = 0;
  bool ok = false;
  std::uint64_t count = 0;
};

struct Client {
  std::vector<double> latency_ms;
  LayerTime decode, serve, encode, hash, iso;
  std::uint64_t probe_tick = 0;
  std::vector<std::vector<Reply>> replies;  // by variant
};

class ServeHot final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    wrbpg::Rng rng(seed ^ 0x5e12e40bULL);
    variants_.clear();
    pool_variants_.clear();
    expected_cost_.clear();

    // Canonical pool graphs first (variant index == pool index), then
    // their relabelings, then the never-seen graphs.
    std::vector<Graph> shapes;
    for (const char* spec : kShapes) shapes.push_back(BuildSpec(spec));
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const Weight lo = wrbpg::MinValidBudget(shapes[s]);
      for (const Weight offset : kBudgetOffsets) {
        Variant v;
        v.graph = shapes[s];
        v.budget = lo + 16 * offset;
        v.pool = static_cast<int>(variants_.size());
        v.bytes = wrbpg::ToBinary(v.graph);
        variants_.push_back(std::move(v));
      }
    }
    // The relabelings are a fixed set, the same for every seed: their cost
    // in FindIsomorphism depends on the labeling, and a per-seed set would
    // move throughput with the seed rather than with the code.
    wrbpg::Rng relabel_rng(0x1abe1ULL);
    const std::size_t pool_size = variants_.size();
    pool_variants_.resize(pool_size);
    for (std::size_t p = 0; p < pool_size; ++p) {
      for (int r = 0; r < kRelabelings; ++r) {
        Variant v;
        v.graph = Relabel(variants_[p].graph, relabel_rng);
        v.budget = variants_[p].budget;
        v.pool = static_cast<int>(p);
        v.bytes = wrbpg::ToBinary(v.graph);
        pool_variants_[p].push_back(
            static_cast<std::uint32_t>(variants_.size()));
        variants_.push_back(std::move(v));
      }
    }
    const std::size_t first_new = variants_.size();
    for (std::size_t i = 0; i < kNeverSeen; ++i) {
      wrbpg::RandomDagOptions options;
      options.num_layers = 5;
      options.nodes_per_layer = 6;
      Variant v;
      v.graph = wrbpg::BuildRandomDag(rng, options);
      v.budget = wrbpg::MinValidBudget(v.graph) + 8;
      v.bytes = wrbpg::ToBinary(v.graph);
      variants_.push_back(std::move(v));
    }

    // The request stream.
    std::vector<double> cdf(pool_size);
    double total = 0;
    for (std::size_t r = 0; r < pool_size; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf[r] = total;
    }
    stream_.assign(kStreamLength, 0);
    std::size_t next_new = first_new;
    for (std::uint32_t& request : stream_) {
      if (rng.Bernoulli(kNeverSeenShare)) {
        request = static_cast<std::uint32_t>(next_new);
        if (++next_new == variants_.size()) next_new = first_new;
        continue;
      }
      const double u = rng.UniformDouble() * total;
      const auto p = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::size_t pool = std::min(p, pool_size - 1);
      if (rng.Bernoulli(kRelabeledShare / (1 - kNeverSeenShare))) {
        request = pool_variants_[pool][static_cast<std::size_t>(
            rng.UniformInt(0, kRelabelings - 1))];
      } else {
        request = static_cast<std::uint32_t>(pool);
      }
    }
    next_request_ = 0;

    // A fresh service, warmed with one cold solve per pool entry.
    wrbpg::ServiceOptions options;
    options.robust.threads = 1;
    service_ = std::make_unique<ScheduleService>(options);
    for (std::size_t p = 0; p < pool_size; ++p) {
      wrbpg::ServiceRequest request;
      request.graph = &variants_[p].graph;
      request.budget = variants_[p].budget;
      const wrbpg::ServiceResponse response = service_->Serve(request);
      expected_cost_.push_back(response.ok ? response.result.cost
                                           : wrbpg::kInfiniteCost);
    }
  }

  std::uint64_t StreamHash() const override {
    std::uint64_t hash = kFnvBasis;
    for (const std::uint32_t v : stream_) {
      hash = Fnv1a(hash, variants_[v].bytes);
      hash = Fnv1a(hash, static_cast<std::uint64_t>(variants_[v].budget));
    }
    return hash;
  }

  Phase Measure(double seconds, bool traced) override {
    const std::size_t clients =
        std::max(1u, std::thread::hardware_concurrency());
    clients_.assign(clients, Client{});
    for (Client& c : clients_) c.replies.resize(variants_.size());
    stats_before_ = service_->stats();
    std::atomic<bool> stop{false};
    std::latch start(static_cast<std::ptrdiff_t>(clients + 1));
    std::vector<Clock::time_point> finished(clients);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        Client& client = clients_[t];
        start.arrive_and_wait();
        while (!stop.load(std::memory_order_relaxed)) {
          ServeOne(client, traced);
        }
        finished[t] = Clock::now();
      });
    }
    start.arrive_and_wait();
    const Clock::time_point begin = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (std::thread& t : threads) t.join();

    Phase phase;
    phase.clients = clients;
    Clock::time_point end = begin;
    for (const Clock::time_point f : finished) end = std::max(end, f);
    phase.wall_s = std::chrono::duration<double>(end - begin).count();
    for (Client& c : clients_) {
      phase.latency_ms.insert(phase.latency_ms.end(), c.latency_ms.begin(),
                              c.latency_ms.end());
      MergeInto(phase.layers, {{"core.decode", c.decode},
                               {"top.serve", c.serve},
                               {"core.encode", c.encode},
                               {"ganalysis.hash", c.hash},
                               {"ganalysis.iso", c.iso}});
    }
    phase.calls = phase.latency_ms.size();
    return phase;
  }

  Answers Check() override {
    Answers answers;
    cert_lb_sum_ = 0;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      const Variant& variant = variants_[v];
      Weight cert_lb = -1;
      for (const Client& client : clients_) {
        for (const Reply& reply : client.replies[v]) {
          const std::string where = "serve-hot variant " + std::to_string(v) +
                                    " budget " +
                                    std::to_string(variant.budget);
          if (!reply.ok) {
            for (std::uint64_t i = 0; i < reply.count; ++i) {
              answers.Fail(where + ": service answered not-ok");
            }
            continue;
          }
          const auto parsed = wrbpg::ParseScheduleBinary(reply.bytes);
          const wrbpg::SimResult sim =
              parsed.ok ? wrbpg::Simulate(variant.graph, variant.budget,
                                          parsed.schedule)
                        : wrbpg::SimResult{};
          std::string problem;
          if (!sim.valid) {
            problem = "reply schedule fails re-simulation: " +
                      (parsed.ok ? sim.error : parsed.error);
          } else if (sim.cost != reply.cost) {
            problem = "reported cost " + std::to_string(reply.cost) +
                      " != simulated " + std::to_string(sim.cost);
          } else if (reply.lower_bound > reply.cost) {
            problem = "lower bound above cost";
          } else if (variant.pool >= 0 &&
                     reply.cost != expected_cost_[static_cast<std::size_t>(
                                       variant.pool)]) {
            problem = "cost " + std::to_string(reply.cost) +
                      " != warm-up answer " +
                      std::to_string(expected_cost_[static_cast<std::size_t>(
                          variant.pool)]);
          }
          if (cert_lb < 0) {
            cert_lb = wrbpg::BestCertifiedBound(variant.graph, variant.budget);
          }
          for (std::uint64_t i = 0; i < reply.count; ++i) {
            if (!problem.empty()) {
              answers.Fail(where + ": " + problem);
            } else {
              answers.Grade(reply.cost, reply.lower_bound);
              cert_lb_sum_ += static_cast<double>(cert_lb);
            }
          }
        }
      }
    }
    return answers;
  }

  Metrics LayerMetrics(const Phase& /*phase*/,
                       const Answers& answers) override {
    const wrbpg::ServiceStats after = service_->stats();
    const double requests =
        static_cast<double>(after.requests - stats_before_.requests);
    Metrics m;
    m["service.hit_ratio"] = {
        Ratio(static_cast<double>(after.cache_hits + after.iso_hits -
                                  stats_before_.cache_hits -
                                  stats_before_.iso_hits),
              requests),
        "ratio"};
    m["service.iso_hit_ratio"] = {
        Ratio(static_cast<double>(after.iso_hits - stats_before_.iso_hits),
              requests),
        "ratio"};
    m["service.evictions"] = {
        static_cast<double>(after.cache_evictions -
                            stats_before_.cache_evictions),
        "count"};
    m["ganalysis.cert_lb_ratio"] = {Ratio(cert_lb_sum_, answers.sum_cost),
                                    "ratio"};
    return m;
  }

 private:
  void ServeOne(Client& client, bool traced) {
    const std::size_t index =
        next_request_.fetch_add(1, std::memory_order_relaxed) % kStreamLength;
    const std::uint32_t v = stream_[index];
    const Variant& variant = variants_[v];

    const Clock::time_point t0 = Clock::now();
    const wrbpg::GraphParseResult parsed =
        wrbpg::ParseGraphBinary(variant.bytes);
    const Clock::time_point t1 = Clock::now();
    const bool probe = traced && ++client.probe_tick % kProbeEvery == 0;
    if (probe) {
      // Probe: the iso-invariant key Serve derives internally.
      const Clock::time_point h0 = Clock::now();
      (void)ScheduleService::DeriveKey(parsed.graph, variant.budget);
      client.hash.Add(NsBetween(h0, Clock::now()));
    }
    const Clock::time_point t2 = Clock::now();
    wrbpg::ServiceRequest request;
    request.graph = &parsed.graph;
    request.budget = variant.budget;
    const wrbpg::ServiceResponse response = service_->Serve(request);
    const Clock::time_point t3 = Clock::now();
    std::string reply_bytes = wrbpg::ToBinary(response.result.schedule);
    const Clock::time_point t4 = Clock::now();

    client.latency_ms.push_back(
        std::chrono::duration<double, std::milli>((t1 - t0) + (t4 - t2))
            .count());
    client.decode.Add(NsBetween(t0, t1));
    client.serve.Add(NsBetween(t2, t3));
    client.encode.Add(NsBetween(t3, t4));
    if (probe && response.source == ServeSource::kIsoCacheHit &&
        variant.pool >= 0) {
      // Probe: the verified isomorphism an iso hit needs.
      const Clock::time_point i0 = Clock::now();
      (void)wrbpg::FindIsomorphism(
          variants_[static_cast<std::size_t>(variant.pool)].graph,
          parsed.graph);
      client.iso.Add(NsBetween(i0, Clock::now()));
    }

    // Keep one copy of each distinct reply for the check pass.
    std::vector<Reply>& seen = client.replies[v];
    for (Reply& reply : seen) {
      if (reply.ok == response.ok && reply.cost == response.result.cost &&
          reply.lower_bound == response.result.lower_bound &&
          reply.bytes == reply_bytes) {
        ++reply.count;
        return;
      }
    }
    seen.push_back(Reply{std::move(reply_bytes), response.result.cost,
                         response.result.lower_bound, response.ok, 1});
  }

  std::vector<Variant> variants_;
  std::vector<std::vector<std::uint32_t>> pool_variants_;
  std::vector<Weight> expected_cost_;
  std::vector<std::uint32_t> stream_;
  std::atomic<std::size_t> next_request_{0};
  std::unique_ptr<ScheduleService> service_;
  wrbpg::ServiceStats stats_before_;
  std::vector<Client> clients_;
  double cert_lb_sum_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeHot(const std::string& /*data_dir*/) {
  return std::make_unique<ServeHot>();
}

}  // namespace perfbench
