// bench_explore — design-space explorer throughput + determinism gate.
//
// Runs the full Explore() grid (band derivation, per-budget anytime
// solves, SRAM pricing, dominance pass) on two builtin instances at
// several outer thread counts and checks the DESIGN.md §8 contract the
// explorer inherits: with the default deadline_ms == 0 the frontier is
// bit-identical at any thread count. Each row records the FNV-1a
// FrontierHash and whether it matches the same instance's single-thread
// run; `all_identical` gates the whole document.
//
// Emits a wrbpg-obs-v1 document (tool "explore") consumed by
// tools/bench_diff.py against bench/baselines/BENCH_explore_quick.json:
// points / frontier_size / frontier_hash / identical are deterministic
// fields (must agree across runs), time_ms is the perf signal.
// budgets_certified / budgets_searched split each row's budgets between
// the Prop 2.4 certificate (priced without search) and the scheduler, so
// a time_ms move can be traced to the layer that moved.
//
//   ./bench_explore --quick               # CI: threads {1,2}
//   ./bench_explore                       # full: threads {1,2,8}
//   ./bench_explore --json out.json       # artifact path (default
//                                         # BENCH_explore.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "dataflows/builtin_spec.h"
#include "explore/explore.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/cli.h"
#include "util/table.h"

namespace wrbpg {
namespace {

struct ExploreRow {
  std::string instance;
  std::size_t threads = 0;
  std::size_t points = 0;
  std::size_t frontier_size = 0;
  std::size_t budgets_certified = 0;  // priced without search
  std::size_t budgets_searched = 0;   // sent to the scheduler
  std::uint64_t frontier_hash = 0;
  bool identical = false;  // hash matches this instance's threads=1 row
  double time_ms = 0;
  double points_per_sec = 0;
};

std::string HexHash(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

int Run(const CliArgs& args) {
  const bool quick = args.GetBool("quick", false);
  const std::string json_path = args.GetString("json", "BENCH_explore.json");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  const std::vector<std::string> instances = {"dwt:8,2", "kary:2,3"};
  const std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 8};

  std::vector<ExploreRow> rows;
  bool all_identical = true;
  bool all_ok = true;
  for (const std::string& spec : instances) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    if (!built.ok) {
      std::cerr << "error: " << spec << ": " << built.error << "\n";
      return 1;
    }
    std::uint64_t t1_hash = 0;
    for (const std::size_t threads : thread_counts) {
      ExploreOptions options;
      options.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const ExploreResult result = Explore(built.graph(), options);
      const auto stop = std::chrono::steady_clock::now();

      ExploreRow row;
      row.instance = spec;
      row.threads = threads;
      row.time_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      if (!result.ok || result.frontier.empty()) {
        std::cerr << "error: " << spec << " threads=" << threads
                  << ": exploration "
                  << (result.ok ? "returned an empty frontier" : result.error)
                  << "\n";
        all_ok = false;
        rows.push_back(row);
        continue;
      }
      row.points = result.points.size();
      row.frontier_size = result.frontier.size();
      row.budgets_certified = result.budgets_certified;
      row.budgets_searched =
          result.budgets_scanned - result.budgets_certified;
      row.frontier_hash = FrontierHash(result);
      if (threads == thread_counts.front()) t1_hash = row.frontier_hash;
      row.identical = row.frontier_hash == t1_hash;
      all_identical = all_identical && row.identical;
      row.points_per_sec =
          row.time_ms > 0
              ? static_cast<double>(row.points) / (row.time_ms / 1000.0)
              : 0;
      rows.push_back(row);
    }
  }

  TextTable table({"Instance", "Threads", "Points", "Frontier",
                   "Certified", "Searched", "Hash", "Identical",
                   "Time (ms)", "Points/s"});
  for (const ExploreRow& row : rows) {
    table.AddRow({row.instance, std::to_string(row.threads),
                  std::to_string(row.points),
                  std::to_string(row.frontier_size),
                  std::to_string(row.budgets_certified),
                  std::to_string(row.budgets_searched),
                  HexHash(row.frontier_hash),
                  row.identical ? "yes" : "NO", Fmt(row.time_ms),
                  Fmt(row.points_per_sec)});
  }
  table.Print(std::cout);
  std::cout << (all_identical ? "frontiers bit-identical across thread counts"
                              : "DETERMINISM VIOLATION: frontier hash differs "
                                "across thread counts")
            << "\n";

  obs::Json doc = obs::ObsDocument("explore");
  obs::Json json_rows = obs::Json::Array();
  for (const ExploreRow& row : rows) {
    obs::Json r = obs::Json::Object();
    r.Set("instance", row.instance);
    r.Set("threads", static_cast<std::int64_t>(row.threads));
    r.Set("points", static_cast<std::int64_t>(row.points));
    r.Set("frontier_size", static_cast<std::int64_t>(row.frontier_size));
    r.Set("budgets_certified",
          static_cast<std::int64_t>(row.budgets_certified));
    r.Set("budgets_searched", static_cast<std::int64_t>(row.budgets_searched));
    r.Set("frontier_hash", HexHash(row.frontier_hash));
    r.Set("identical", row.identical);
    r.Set("time_ms", row.time_ms);
    r.Set("points_per_sec", row.points_per_sec);
    json_rows.Push(std::move(r));
  }
  doc.Set("rows", std::move(json_rows));
  doc.Set("all_identical", all_identical);
  std::string error;
  if (!obs::WriteJsonFile(json_path, doc, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cout << "[json] " << json_path << "\n";
  return (all_identical && all_ok) ? 0 : 1;
}

}  // namespace
}  // namespace wrbpg

int main(int argc, char** argv) {
  const wrbpg::CliArgs args(argc, argv);
  return wrbpg::Run(args);
}
