// The exact search's state widths, reached through the
// detail::SearchAtWidth seam so differential tests can run one problem at
// every width that holds its graph and demand bit-identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "schedulers/brute_force.h"

namespace wrbpg::testing {

struct SearchWidth {
  const char* name;
  NodeId max_nodes;  // the largest graph this width holds
  ScheduleResult (*search)(const Graph&, Weight, const BruteForceOptions&,
                           bool);

  ScheduleResult Run(const Graph& graph, Weight budget,
                     const BruteForceOptions& options) const {
    return search(graph, budget, options, /*want_schedule=*/true);
  }
  Weight CostOnly(const Graph& graph, Weight budget,
                  const BruteForceOptions& options) const {
    return search(graph, budget, options, /*want_schedule=*/false).cost;
  }
};

inline const SearchWidth kSearchWidths[] = {
    {"w32", 32, &detail::SearchAtWidth<std::uint32_t, 1>},
    {"w64", 64, &detail::SearchAtWidth<std::uint64_t, 1>},
    {"w128", 128, &detail::SearchAtWidth<std::uint64_t, 2>},
    {"w256", 256, &detail::SearchAtWidth<std::uint64_t, 4>},
    {"interned", kInvalidNode,
     &detail::SearchAtWidth<std::uint64_t, detail::kInternedWords>},
};

// Every width that holds `graph`, narrowest first.
inline std::vector<SearchWidth> WidthsFor(const Graph& graph) {
  std::vector<SearchWidth> widths;
  for (const SearchWidth& width : kSearchWidths) {
    if (graph.num_nodes() <= width.max_nodes) widths.push_back(width);
  }
  return widths;
}

}  // namespace wrbpg::testing
