#include "core/binio.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/types.h"

namespace wrbpg {
namespace {

constexpr std::size_t kHeaderSize = 8;
constexpr std::size_t kChecksumSize = 8;
// Bounds an individual node-name record; a longer length field in the
// stream is corruption, not a graph.
constexpr std::uint32_t kMaxNameLen = 4096;

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutHeader(std::string& out, std::uint8_t kind) {
  out.append(kBinMagic);
  out.push_back(static_cast<char>(kBinVersion));
  out.push_back(static_cast<char>(kind));
  PutU16(out, 0);  // reserved
}

void PutChecksum(std::string& out) {
  PutU64(out, Fnv1a(out));
}

// Bounds-checked little-endian reader over the payload region.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  bool ReadU8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool ReadU32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadI64(std::int64_t& out) {
    std::uint64_t raw = 0;
    if (!ReadU64(raw)) return false;
    out = static_cast<std::int64_t>(raw);
    return true;
  }
  bool ReadBytes(std::size_t n, std::string_view& out) {
    if (remaining() < n) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Validates the fixed envelope (magic, version, kind, checksum) and
// returns the payload region, or a failure reason.
bool OpenEnvelope(std::string_view bytes, std::uint8_t expected_kind,
                  std::string_view& payload, std::string& error) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    error = "truncated: " + std::to_string(bytes.size()) +
            " bytes is shorter than header + checksum";
    return false;
  }
  if (bytes.substr(0, kBinMagic.size()) != kBinMagic) {
    error = "bad magic: expected 'WBIN'";
    return false;
  }
  const auto version = static_cast<std::uint8_t>(bytes[4]);
  if (version != kBinVersion) {
    error = "unsupported version " + std::to_string(version) +
            " (this reader speaks v" + std::to_string(kBinVersion) + ")";
    return false;
  }
  const auto kind = static_cast<std::uint8_t>(bytes[5]);
  if (kind != expected_kind) {
    error = "wrong kind " + std::to_string(kind) + " (expected " +
            std::to_string(expected_kind) + ")";
    return false;
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    error = "reserved header bytes are not zero";
    return false;
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumSize);
  Reader footer(bytes.substr(bytes.size() - kChecksumSize));
  std::uint64_t stored = 0;
  footer.ReadU64(stored);
  const std::uint64_t computed = Fnv1a(body);
  if (stored != computed) {
    error = "checksum mismatch (corrupt or truncated stream)";
    return false;
  }
  payload = bytes.substr(kHeaderSize, bytes.size() - kHeaderSize -
                                          kChecksumSize);
  return true;
}

}  // namespace

bool LooksLikeBinary(std::string_view bytes) {
  return bytes.size() >= kBinMagic.size() &&
         bytes.substr(0, kBinMagic.size()) == kBinMagic;
}

std::string ToBinary(const Graph& graph) {
  std::string out;
  PutHeader(out, kBinKindGraph);
  PutU32(out, graph.num_nodes());
  PutU32(out, static_cast<std::uint32_t>(graph.num_edges()));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    PutU64(out, static_cast<std::uint64_t>(graph.weight(v)));
  }
  bool any_name = false;
  for (NodeId v = 0; v < graph.num_nodes() && !any_name; ++v) {
    any_name = !graph.name(v).empty();
  }
  out.push_back(any_name ? '\x01' : '\x00');
  if (any_name) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const std::string& name = graph.name(v);
      PutU32(out, static_cast<std::uint32_t>(name.size()));
      out.append(name);
    }
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId c : graph.children(v)) {
      PutU32(out, v);
      PutU32(out, c);
    }
  }
  PutChecksum(out);
  return out;
}

std::string ToBinary(const Schedule& schedule) {
  std::string out;
  PutHeader(out, kBinKindSchedule);
  PutU32(out, static_cast<std::uint32_t>(schedule.size()));
  for (const Move& move : schedule) {
    out.push_back(static_cast<char>(move.type));
    PutU32(out, move.node);
  }
  PutChecksum(out);
  return out;
}

std::size_t BinarySize(const Graph& graph) {
  std::size_t names = 0;
  bool any_name = false;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    names += 4 + graph.name(v).size();
    any_name = any_name || !graph.name(v).empty();
  }
  return kHeaderSize + 8 + 8 * std::size_t{graph.num_nodes()} + 1 +
         (any_name ? names : 0) + 8 * graph.num_edges() + kChecksumSize;
}

std::size_t BinarySize(const Schedule& schedule) {
  return kHeaderSize + 4 + 5 * schedule.size() + kChecksumSize;
}

GraphParseResult ParseGraphBinary(std::string_view bytes) {
  GraphParseResult result;
  std::string_view payload;
  if (!OpenEnvelope(bytes, kBinKindGraph, payload, result.error)) {
    return result;
  }
  Reader in(payload);
  auto fail = [&](const std::string& message) {
    result.error =
        "offset " + std::to_string(kHeaderSize + in.offset()) + ": " + message;
    return result;
  };
  std::uint32_t num_nodes = 0;
  std::uint32_t num_edges = 0;
  if (!in.ReadU32(num_nodes) || !in.ReadU32(num_edges)) {
    return fail("truncated counts");
  }
  if (num_nodes == 0) return fail("graph declares zero nodes");
  // Every node costs >= 8 payload bytes (its weight) and every edge 8;
  // counts beyond the remaining bytes are corruption, rejected before
  // any allocation is sized from them.
  if (num_nodes > in.remaining() / 8) {
    return fail("declared node count " + std::to_string(num_nodes) +
                " exceeds the remaining payload");
  }
  if (num_edges > in.remaining() / 8) {
    return fail("declared edge count " + std::to_string(num_edges) +
                " exceeds the remaining payload");
  }
  std::vector<Weight> weights(num_nodes);
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    if (!in.ReadI64(weights[v])) return fail("truncated weight table");
    if (weights[v] <= 0) {
      return fail("node " + std::to_string(v) + " has non-positive weight " +
                  std::to_string(weights[v]));
    }
  }
  std::uint8_t names_present = 0;
  if (!in.ReadU8(names_present)) return fail("truncated names flag");
  if (names_present > 1) {
    return fail("names flag must be 0 or 1, got " +
                std::to_string(names_present));
  }
  std::vector<std::string> names(num_nodes);
  if (names_present == 1) {
    for (std::uint32_t v = 0; v < num_nodes; ++v) {
      std::uint32_t len = 0;
      if (!in.ReadU32(len)) return fail("truncated name table");
      if (len > kMaxNameLen) {
        return fail("name length " + std::to_string(len) + " exceeds limit " +
                    std::to_string(kMaxNameLen));
      }
      std::string_view raw;
      if (!in.ReadBytes(len, raw)) return fail("truncated name bytes");
      names[v].assign(raw);
    }
  }
  // Edges go straight into the child CSR. ToBinary writes them grouped by
  // ascending parent, so the e-th edge is the e-th child entry and one
  // pass fills the table; a stream in any other order is re-read below
  // and placed by counting sort.
  const std::size_t edges_at = in.offset();
  std::vector<std::size_t> child_offsets(num_nodes + 1, 0);
  std::vector<NodeId> child_data(num_edges);
  bool grouped = true;
  std::uint32_t last_parent = 0;
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    if (!in.ReadU32(u) || !in.ReadU32(v)) return fail("truncated edge table");
    if (u >= num_nodes || v >= num_nodes) {
      return fail("edge (" + std::to_string(u) + "," + std::to_string(v) +
                  ") references an undeclared node");
    }
    if (u == v) return fail("self-loop on node " + std::to_string(u));
    ++child_offsets[u + 1];
    child_data[e] = v;
    grouped = grouped && u >= last_parent;
    last_parent = u;
  }
  if (in.remaining() != 0) {
    return fail(std::to_string(in.remaining()) +
                " trailing payload bytes after the edge table");
  }
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    child_offsets[v + 1] += child_offsets[v];
  }
  if (!grouped) {
    Reader again(payload.substr(edges_at));
    std::vector<std::size_t> fill(child_offsets.begin(),
                                  child_offsets.end() - 1);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      std::uint32_t u = 0;
      std::uint32_t v = 0;
      again.ReadU32(u);
      again.ReadU32(v);
      child_data[fill[u]++] = v;
    }
  }
  // Duplicate edges, isolated nodes and cycles: Build's own checks.
  auto built = GraphBuilder::BuildFromChildLists(
      std::move(weights), std::move(names), std::move(child_offsets),
      std::move(child_data), GraphBuilder::BuildOptions{});
  if (!built.ok) {
    result.error = built.error;
    return result;
  }
  result.graph = std::move(built.graph);
  result.ok = true;
  return result;
}

ScheduleParseResult ParseScheduleBinary(std::string_view bytes) {
  ScheduleParseResult result;
  std::string_view payload;
  if (!OpenEnvelope(bytes, kBinKindSchedule, payload, result.error)) {
    return result;
  }
  Reader in(payload);
  auto fail = [&](const std::string& message) {
    result.error =
        "offset " + std::to_string(kHeaderSize + in.offset()) + ": " + message;
    return result;
  };
  std::uint32_t num_moves = 0;
  if (!in.ReadU32(num_moves)) return fail("truncated move count");
  if (num_moves > in.remaining() / 5) {
    return fail("declared move count " + std::to_string(num_moves) +
                " exceeds the remaining payload");
  }
  std::vector<Move> moves;
  moves.reserve(num_moves);
  for (std::uint32_t i = 0; i < num_moves; ++i) {
    std::uint8_t type = 0;
    std::uint32_t node = 0;
    if (!in.ReadU8(type) || !in.ReadU32(node)) {
      return fail("truncated move table");
    }
    if (type > static_cast<std::uint8_t>(MoveType::kDelete)) {
      return fail("move " + std::to_string(i) + " has invalid type " +
                  std::to_string(type));
    }
    if (node >= kInvalidNode) {
      return fail("move " + std::to_string(i) + " node id out of range");
    }
    moves.push_back({static_cast<MoveType>(type), node});
  }
  if (in.remaining() != 0) {
    return fail(std::to_string(in.remaining()) +
                " trailing payload bytes after the move table");
  }
  result.schedule = Schedule(std::move(moves));
  result.ok = true;
  return result;
}

}  // namespace wrbpg
