// Test-only oracle for the multiplicity-aware feature row: the plain
// per-pair form, reading each pair's multiplicity through CsrGraph::Weight
// (a binary search) and its MHH through CsrGraph::Mhh (a sorted merge of
// the two neighbor rows), with freshly allocated lists aggregated by the
// vector-returning util::Aggregate5. It shares no scratch and no scatter
// with the library's extractor it checks.

#pragma once

#include <vector>

#include "hypergraph/csr.hpp"
#include "hypergraph/types.hpp"
#include "la/matrix.hpp"
#include "util/stats.hpp"

namespace marioh::testing_oracle {

/// The 23 multiplicity-aware features of `clique` (canonical, size >= 2)
/// on `g`, in the library's slot order.
inline la::Vector MultiplicityAwareRow(const CsrGraph& g, CliqueView clique,
                                       bool is_maximal) {
  const size_t k = clique.size();
  std::vector<double> wdeg;
  for (NodeId u : clique) {
    wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  }
  std::vector<double> mult, mhh, mhh_ratio;
  double internal_weight = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      double w = static_cast<double>(g.Weight(clique[i], clique[j]));
      double m = static_cast<double>(g.Mhh(clique[i], clique[j]));
      mult.push_back(w);
      mhh.push_back(m);
      mhh_ratio.push_back(w > 0 ? m / w : 0.0);
      internal_weight += w;
    }
  }
  double boundary = 0.0;
  for (double d : wdeg) boundary += d;
  boundary -= 2.0 * internal_weight;
  double cut_ratio = (internal_weight + boundary) > 0
                         ? internal_weight / (internal_weight + boundary)
                         : 0.0;
  la::Vector out;
  for (const std::vector<double>* values : {&wdeg, &mult, &mhh, &mhh_ratio}) {
    std::vector<double> agg = util::Aggregate5(*values);
    out.insert(out.end(), agg.begin(), agg.end());
  }
  out.push_back(static_cast<double>(k));
  out.push_back(cut_ratio);
  out.push_back(is_maximal ? 1.0 : 0.0);
  return out;
}

}  // namespace marioh::testing_oracle
