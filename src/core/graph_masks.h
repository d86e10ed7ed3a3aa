// Word-span move-legality masks shared by the exact-search hot path and
// the simulator (DESIGN.md §14).
//
// Every WRBPG move predicate is a set operation over the (red, blue)
// configuration and a per-graph constant: the loadable set is
// `blue & ~red`, the storable set `red & ~blue`, the deletable set `red`,
// and the computable set is `~red & ~sources` filtered by
// `parents(v) ⊆ red`. BasicGraphMasks precomputes the per-graph constants
// as arrays of `Word`s (node v lives in word v/bits, bit v%bits) so those
// predicates become word-parallel AND/ANDNOT ops plus ctz iteration —
// no per-node branching. Word type and word count are template
// parameters, so every width of the exact search and the simulator's
// GraphMasks read the same kind of table.
//
// Built once per Graph, read-only afterwards: safe to share across
// threads.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

// One colour's mask words: a fixed-size array when the word count is a
// compile-time constant, a heap vector sized at runtime when kWords == 0.
template <typename Word, std::size_t kWords>
using MaskWords = std::conditional_t<kWords == 0, std::vector<Word>,
                                     std::array<Word, kWords>>;

// A zeroed mask of `words` words (the size argument matters only for the
// runtime-sized kWords == 0 form).
template <typename Word, std::size_t kWords>
MaskWords<Word, kWords> ZeroMask(std::size_t words) {
  if constexpr (kWords == 0) {
    return std::vector<Word>(words, 0);
  } else {
    (void)words;
    return MaskWords<Word, kWords>{};
  }
}

// The tables for one mask width: kWords words of type Word per node mask,
// or (kWords == 0) as many as the graph needs, counted at runtime. At a
// fixed width the per-graph masks are in-object arrays and every per-node
// stride is a compile-time constant.
template <typename Word, std::size_t kWords>
class BasicGraphMasks {
 public:
  static constexpr std::size_t kBits = std::numeric_limits<Word>::digits;

  // `with_children` additionally builds per-node child masks (used by the
  // heuristic's M4 delta test; the simulator does not need them). A fixed
  // width needs num_nodes() <= kWords * kBits.
  explicit BasicGraphMasks(const Graph& graph, bool with_children = false)
      : words_(kWords != 0 ? kWords
                           : std::max<std::size_t>(
                                 1, (static_cast<std::size_t>(
                                         graph.num_nodes()) + kBits - 1) /
                                        kBits)),
        sources_(ZeroMask<Word, kWords>(words_)),
        sinks_(ZeroMask<Word, kWords>(words_)),
        nodes_(ZeroMask<Word, kWords>(words_)) {
    const NodeId n = graph.num_nodes();
    parents_.assign(words_ * n, 0);
    if (with_children) children_.assign(words_ * n, 0);
    for (NodeId v = 0; v < n; ++v) {
      nodes_[v / kBits] |= Bit(v);
      if (graph.is_source(v)) sources_[v / kBits] |= Bit(v);
      if (graph.is_sink(v)) sinks_[v / kBits] |= Bit(v);
      for (NodeId p : graph.parents(v)) {
        parents_[words_ * v + p / kBits] |= Bit(p);
        if (with_children) children_[words_ * p + v / kBits] |= Bit(v);
      }
    }
  }

  static Word Bit(NodeId v) {
    return static_cast<Word>(Word{1} << (v % kBits));
  }

  std::size_t words() const {
    if constexpr (kWords == 0) {
      return words_;
    } else {
      return kWords;
    }
  }
  const Word* sources() const { return sources_.data(); }
  const Word* sinks() const { return sinks_.data(); }
  // All valid node ids set: masks out the unused high bits of the last word.
  const Word* nodes() const { return nodes_.data(); }
  const Word* parents_of(NodeId v) const { return &parents_[words() * v]; }
  const Word* children_of(NodeId v) const { return &children_[words() * v]; }

  bool is_source(NodeId v) const {
    return (sources_[v / kBits] & Bit(v)) != 0;
  }

  // True iff every parent of v is set in the word-span mask `red`.
  bool ParentsSubsetOf(NodeId v, const Word* red) const {
    const Word* p = parents_of(v);
    for (std::size_t w = 0; w < words(); ++w) {
      if ((p[w] & ~red[w]) != 0) return false;
    }
    return true;
  }

 private:
  std::size_t words_;
  MaskWords<Word, kWords> sources_;
  MaskWords<Word, kWords> sinks_;
  MaskWords<Word, kWords> nodes_;
  std::vector<Word> parents_;   // words() words per node
  std::vector<Word> children_;  // words() words per node (optional)
};

// The simulator's masks: 64-bit words, as many as the graph needs.
using GraphMasks = BasicGraphMasks<std::uint64_t, 0>;

}  // namespace wrbpg
