// Test-only oracle for maximal-clique enumeration: a plain sequential
// Bron–Kerbosch with pivoting over the mutable hash-map adjacency, sharing
// no code with the CSR enumerator it checks (no snapshot, no degeneracy
// ordering, no local relabelling, no bitsets).

#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"

namespace marioh::testing_oracle {

/// Recursive Bron–Kerbosch with pivoting. `p` and `x` stay sorted; the
/// growing clique `r` is sorted only on emission.
class HashMapBronKerbosch {
 public:
  HashMapBronKerbosch(const ProjectedGraph& g, std::vector<NodeSet>* out)
      : g_(g), out_(out) {}

  void Expand(NodeSet* r, std::vector<NodeId> p, std::vector<NodeId> x) {
    if (p.empty() && x.empty()) {
      if (r->size() >= 2) {
        out_->push_back(*r);
        std::sort(out_->back().begin(), out_->back().end());
      }
      return;
    }
    // Pivot: the vertex of p ∪ x with the most neighbors in p.
    NodeId pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    auto consider = [&](NodeId cand) {
      size_t cnt = 0;
      for (NodeId w : p) {
        if (g_.HasEdge(cand, w)) ++cnt;
      }
      if (!have_pivot || cnt > best) {
        pivot = cand;
        best = cnt;
        have_pivot = true;
      }
    };
    for (NodeId cand : p) consider(cand);
    for (NodeId cand : x) consider(cand);

    std::vector<NodeId> candidates;
    for (NodeId v : p) {
      if (!g_.HasEdge(pivot, v)) candidates.push_back(v);
    }
    for (NodeId v : candidates) {
      std::vector<NodeId> p2, x2;
      for (NodeId w : p) {
        if (g_.HasEdge(v, w)) p2.push_back(w);
      }
      for (NodeId w : x) {
        if (g_.HasEdge(v, w)) x2.push_back(w);
      }
      r->push_back(v);
      Expand(r, std::move(p2), std::move(x2));
      r->pop_back();
      // Move v from p to x.
      p.erase(std::find(p.begin(), p.end(), v));
      x.insert(std::lower_bound(x.begin(), x.end(), v), v);
    }
  }

 private:
  const ProjectedGraph& g_;
  std::vector<NodeSet>* out_;
};

/// Every maximal clique of `g` with at least two nodes, sorted — the
/// output `EnumerateMaximalCliques` must reproduce when not truncated.
inline std::vector<NodeSet> MaximalCliquesHashMapReference(
    const ProjectedGraph& g) {
  std::vector<NodeSet> out;
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  NodeSet r;
  HashMapBronKerbosch(g, &out).Expand(&r, std::move(all), {});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace marioh::testing_oracle
