#include "io/text_io.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::io {
namespace {

using api::Status;
using api::StatusOr;

/// Fault surface: a transient file-system failure at the named
/// failpoint ("io.read_hypergraph" / "io.read_graph"). kUnavailable so
/// the service retry policy treats it as retryable, unlike the
/// permanent kNotFound / kInvalidArgument the real read paths return.
Status InjectedReadFailure(const std::string& point,
                           const std::string& path) {
  return Status::Unavailable("failpoint '" + point +
                             "': injected transient read failure for " +
                             path);
}

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// A plain decimal token no larger than `max`: no sign, no whitespace, no
/// trailing bytes. std::stoull alone would take "-1" as 2^64 - 1.
StatusOr<uint64_t> ParseNumber(const std::string& token, uint64_t max,
                               size_t line_number) {
  std::optional<uint64_t> value = util::ParseUint64(token);
  if (!value.has_value() || *value > max) {
    return Status::InvalidArgument(
        "line " + std::to_string(line_number) + ": bad token '" + token +
        "' (expected an integer in 0.." + std::to_string(max) + ")");
  }
  return *value;
}

/// Unwraps a StatusOr for the throwing wrapper functions.
template <typename T>
T ValueOrThrow(StatusOr<T> result) {
  if (!result.ok()) {
    throw std::invalid_argument(result.status().message());
  }
  return std::move(result).value();
}

}  // namespace

StatusOr<Hypergraph> TryReadHypergraph(std::istream& in) {
  Hypergraph h;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream tokens(line);
    std::vector<std::string> parts;
    std::string token;
    while (tokens >> token) parts.push_back(token);
    uint32_t multiplicity = 1;
    // Optional trailing "x m".
    if (parts.size() >= 2 && parts[parts.size() - 2] == "x") {
      StatusOr<uint64_t> m = ParseNumber(parts.back(), UINT32_MAX, line_number);
      if (!m.ok()) return m.status();
      multiplicity = static_cast<uint32_t>(*m);
      parts.resize(parts.size() - 2);
    }
    NodeSet edge;
    edge.reserve(parts.size());
    for (const std::string& p : parts) {
      StatusOr<uint64_t> id = ParseNumber(p, kMaxNodeId, line_number);
      if (!id.ok()) return id.status();
      edge.push_back(static_cast<NodeId>(*id));
    }
    // A repeated hyperedge adds to its running multiplicity, which is 32
    // bits wide: reject the line that would wrap it.
    Canonicalize(&edge);
    if (multiplicity > UINT32_MAX - h.Multiplicity(edge)) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": the hyperedge's total multiplicity exceeds " +
          std::to_string(UINT32_MAX));
    }
    h.AddEdge(std::move(edge), multiplicity);
  }
  return h;
}

StatusOr<Hypergraph> TryReadHypergraphFile(const std::string& path) {
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("io.read_hypergraph") ==
          util::FailAction::kError) {
    return InjectedReadFailure("io.read_hypergraph", path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open hypergraph file: " + path);
  }
  return TryReadHypergraph(in);
}

void WriteHypergraph(const Hypergraph& h, std::ostream& out) {
  out << "# marioh hypergraph: " << h.num_nodes() << " nodes, "
      << h.num_unique_edges() << " unique hyperedges\n";
  for (const NodeSet& e : h.UniqueEdges()) {
    for (size_t i = 0; i < e.size(); ++i) {
      out << e[i] << (i + 1 < e.size() ? " " : "");
    }
    uint32_t m = h.Multiplicity(e);
    if (m > 1) out << " x " << m;
    out << "\n";
  }
}

api::Status TryWriteHypergraphFile(const Hypergraph& h,
                                   const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    // Not kNotFound: the path is caller-supplied output, so an unopenable
    // target (missing directory, no permission) is a bad argument.
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  WriteHypergraph(h, out);
  return Status::Ok();
}

StatusOr<ProjectedGraph> TryReadProjectedGraph(std::istream& in) {
  std::string line;
  size_t line_number = 0;
  struct Row {
    NodeId u;
    NodeId v;
    uint32_t w;
    size_t line_number;
  };
  std::vector<Row> rows;
  NodeId max_node = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream tokens(line);
    std::vector<std::string> parts;
    std::string token;
    while (tokens >> token) parts.push_back(token);
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("line " +
                                     std::to_string(line_number) +
                                     ": expected 'u v [w]'");
    }
    StatusOr<uint64_t> u = ParseNumber(parts[0], kMaxNodeId, line_number);
    if (!u.ok()) return u.status();
    StatusOr<uint64_t> v = ParseNumber(parts[1], kMaxNodeId, line_number);
    if (!v.ok()) return v.status();
    Row row;
    row.u = static_cast<NodeId>(*u);
    row.v = static_cast<NodeId>(*v);
    row.w = 1;
    row.line_number = line_number;
    if (parts.size() == 3) {
      StatusOr<uint64_t> w = ParseNumber(parts[2], UINT32_MAX, line_number);
      if (!w.ok()) return w.status();
      row.w = static_cast<uint32_t>(*w);
    }
    if (row.u == row.v) {
      return Status::InvalidArgument("line " +
                                     std::to_string(line_number) +
                                     ": self loop");
    }
    max_node = std::max({max_node, row.u, row.v});
    rows.push_back(row);
  }
  ProjectedGraph g(rows.empty() ? 0 : max_node + 1);
  for (const Row& row : rows) {
    // A repeated edge adds to its running weight, which is 32 bits wide:
    // reject the line that would wrap it.
    if (row.w > UINT32_MAX - g.Weight(row.u, row.v)) {
      return Status::InvalidArgument(
          "line " + std::to_string(row.line_number) +
          ": the edge's total weight exceeds " + std::to_string(UINT32_MAX));
    }
    g.AddWeight(row.u, row.v, row.w);
  }
  return g;
}

StatusOr<ProjectedGraph> TryReadProjectedGraphFile(const std::string& path) {
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("io.read_graph") == util::FailAction::kError) {
    return InjectedReadFailure("io.read_graph", path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open graph file: " + path);
  }
  return TryReadProjectedGraph(in);
}

void WriteProjectedGraph(const ProjectedGraph& g, std::ostream& out) {
  out << "# marioh projected graph: " << g.num_nodes() << " nodes, "
      << g.num_edges() << " edges\n";
  for (const ProjectedGraph::Edge& e : g.Edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

api::Status TryWriteProjectedGraphFile(const ProjectedGraph& g,
                                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    // Not kNotFound: the path is caller-supplied output, so an unopenable
    // target (missing directory, no permission) is a bad argument.
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  WriteProjectedGraph(g, out);
  return Status::Ok();
}

Hypergraph ReadHypergraph(std::istream& in) {
  return ValueOrThrow(TryReadHypergraph(in));
}

Hypergraph ReadHypergraphFile(const std::string& path) {
  return ValueOrThrow(TryReadHypergraphFile(path));
}

ProjectedGraph ReadProjectedGraph(std::istream& in) {
  return ValueOrThrow(TryReadProjectedGraph(in));
}

ProjectedGraph ReadProjectedGraphFile(const std::string& path) {
  return ValueOrThrow(TryReadProjectedGraphFile(path));
}

void WriteHypergraphFile(const Hypergraph& h, const std::string& path) {
  api::Status status = TryWriteHypergraphFile(h, path);
  if (!status.ok()) throw std::invalid_argument(status.message());
}

void WriteProjectedGraphFile(const ProjectedGraph& g,
                             const std::string& path) {
  api::Status status = TryWriteProjectedGraphFile(g, path);
  if (!status.ok()) throw std::invalid_argument(status.message());
}

}  // namespace marioh::io
