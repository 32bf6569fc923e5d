#include "core/features.hpp"

#include <algorithm>
#include <vector>

#include "core/motif.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace marioh::core {
namespace {

/// The neighborhood-density pass below consumes at most this many nodes
/// in total, so neighbor lists never need more than the 64 smallest ids.
constexpr size_t kHoodCap = 64;

/// The `kHoodCap` smallest neighbor ids of u in ascending order: a prefix
/// of the sorted CSR row.
std::span<const NodeId> SortedNeighborIds(const CsrGraph& g, NodeId u) {
  auto nbrs = g.Neighbors(u);
  return nbrs.subspan(0, std::min(nbrs.size(), kHoodCap));
}

size_t FeatureDim(FeatureMode mode) {
  switch (mode) {
    case FeatureMode::kMultiplicityAware:
      // 5 (weighted degree) + 3 * 5 (edge features) + 3 (clique-level).
      return 23;
    case FeatureMode::kStructural:
      // 5 (degree) + 5 (common neighbors) + 3 (density, size, maximal).
      return 13;
    case FeatureMode::kMotif:
      // Structural 13 + 5 (clustering coeff) + 5 (square counts).
      return 23;
  }
  MARIOH_CHECK(false);
  return 0;
}

/// The multiplicity-aware row, written to `out`. Every pair (c[i], c[j]),
/// i < j, reads its multiplicity and MHH off c[i]'s neighbor weights,
/// scattered once into the all-zero `weight_to`: w(c[i], c[j]) is
/// `weight_to[c[j]]`, and MHH(c[i], c[j]) sums min(weight_to[z],
/// w(c[j], z)) over c[j]'s row, where every z outside N(c[i]) adds
/// min(0, .) = 0. MHH is an integer sum, so this equals the sorted merge
/// of CsrGraph::Mhh exactly; the per-row lists and the aggregation keep
/// their order, so the row is the same bits.
void ExtractMultiplicityAware(const CsrGraph& g, CliqueView clique,
                              bool is_maximal, FeatureScratch* scratch,
                              double* out) {
  const size_t k = clique.size();
  std::vector<uint32_t>& weight_to = scratch->weight_to;
  if (weight_to.size() < g.num_nodes()) weight_to.resize(g.num_nodes(), 0);

  // Node-level: weighted degree of each clique member.
  std::vector<double>& wdeg = scratch->nodes;
  wdeg.clear();
  for (NodeId u : clique) {
    wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  }

  // Edge-level: multiplicity, MHH, MHH / multiplicity per clique edge.
  std::vector<double>& mult = scratch->mult;
  std::vector<double>& mhh = scratch->mhh;
  std::vector<double>& mhh_ratio = scratch->ratio;
  mult.clear();
  mhh.clear();
  mhh_ratio.clear();
  double internal_weight = 0.0;
  for (size_t i = 0; i + 1 < k; ++i) {
    const auto nu = g.Neighbors(clique[i]);
    const auto wu = g.Weights(clique[i]);
    for (size_t a = 0; a < nu.size(); ++a) weight_to[nu[a]] = wu[a];
    for (size_t j = i + 1; j < k; ++j) {
      const auto nv = g.Neighbors(clique[j]);
      const auto wv = g.Weights(clique[j]);
      uint64_t shared = 0;
      for (size_t b = 0; b < nv.size(); ++b) {
        shared += std::min(weight_to[nv[b]], wv[b]);
      }
      double w = static_cast<double>(weight_to[clique[j]]);
      double m = static_cast<double>(shared);
      mult.push_back(w);
      mhh.push_back(m);
      mhh_ratio.push_back(w > 0 ? m / w : 0.0);
      internal_weight += w;
    }
    for (NodeId z : nu) weight_to[z] = 0;
  }

  // Clique-level: size, cut ratio, maximality.
  double boundary = 0.0;
  for (double d : wdeg) boundary += d;
  boundary -= 2.0 * internal_weight;  // each internal edge counted twice
  double cut_ratio = (internal_weight + boundary) > 0
                         ? internal_weight / (internal_weight + boundary)
                         : 0.0;

  util::Aggregate5(wdeg, out);
  util::Aggregate5(mult, out + 5);
  util::Aggregate5(mhh, out + 10);
  util::Aggregate5(mhh_ratio, out + 15);
  out[20] = static_cast<double>(k);
  out[21] = cut_ratio;
  out[22] = is_maximal ? 1.0 : 0.0;
}

la::Vector ExtractStructural(const CsrGraph& g, CliqueView clique,
                             bool is_maximal) {
  const size_t k = clique.size();

  // Node-level: unweighted degree.
  std::vector<double> deg;
  deg.reserve(k);
  for (NodeId u : clique) deg.push_back(static_cast<double>(g.Degree(u)));

  // Edge-level: common-neighbor count of each edge's endpoints.
  std::vector<double> common;
  common.reserve(k * (k - 1) / 2);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      common.push_back(static_cast<double>(
          g.CommonNeighborCount(clique[i], clique[j])));
    }
  }

  // Neighborhood edge density: fraction of pairs among the union of the
  // clique's neighbors (capped for cost, in ascending-id order) that are
  // connected.
  NodeSet hood(clique.begin(), clique.end());
  for (NodeId u : clique) {
    for (NodeId v : SortedNeighborIds(g, u)) {
      hood.push_back(v);
      if (hood.size() >= kHoodCap) break;
    }
    if (hood.size() >= kHoodCap) break;
  }
  Canonicalize(&hood);
  double density = 0.0;
  if (hood.size() >= 2) {
    size_t present = 0;
    size_t pairs = 0;
    for (size_t i = 0; i < hood.size(); ++i) {
      for (size_t j = i + 1; j < hood.size(); ++j) {
        ++pairs;
        if (g.HasEdge(hood[i], hood[j])) ++present;
      }
    }
    density = static_cast<double>(present) / static_cast<double>(pairs);
  }

  la::Vector out;
  out.reserve(FeatureDim(FeatureMode::kStructural));
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(deg));
  append(util::Aggregate5(common));
  out.push_back(density);
  out.push_back(static_cast<double>(k));
  out.push_back(is_maximal ? 1.0 : 0.0);
  // 13 structural dims; kMotif extends this vector afterwards.
  MARIOH_CHECK_EQ(out.size(), 13u);
  return out;
}

la::Vector ExtractMotif(const CsrGraph& g, CliqueView clique,
                        bool is_maximal) {
  // Structural features first (13 dims, computed identically to
  // kStructural), then motif statistics.
  la::Vector out = ExtractStructural(g, clique, is_maximal);

  std::vector<double> clustering;
  clustering.reserve(clique.size());
  for (NodeId u : clique) {
    clustering.push_back(ClusteringCoefficient(g, u));
  }
  std::vector<double> squares;
  squares.reserve(clique.size() * (clique.size() - 1) / 2);
  for (size_t i = 0; i < clique.size(); ++i) {
    for (size_t j = i + 1; j < clique.size(); ++j) {
      squares.push_back(static_cast<double>(
          SquaresThroughEdge(g, clique[i], clique[j])));
    }
  }
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(clustering));
  append(util::Aggregate5(squares));
  MARIOH_CHECK_EQ(out.size(), FeatureDim(FeatureMode::kMotif));
  return out;
}

void ExtractInto(FeatureMode mode, const CsrGraph& g, CliqueView clique,
                 bool is_maximal, FeatureScratch* scratch, double* out) {
  MARIOH_CHECK_GE(clique.size(), 2u);
  la::Vector row;
  switch (mode) {
    case FeatureMode::kMultiplicityAware:
      ExtractMultiplicityAware(g, clique, is_maximal, scratch, out);
      return;
    case FeatureMode::kStructural:
      row = ExtractStructural(g, clique, is_maximal);
      break;
    case FeatureMode::kMotif:
      row = ExtractMotif(g, clique, is_maximal);
      break;
  }
  std::copy(row.begin(), row.end(), out);
}

/// Fills row i of a (cliques.size() x dim) matrix with clique i's
/// features, one scratch per thread range.
template <typename Cliques>
la::Matrix ExtractRows(FeatureMode mode, const CsrGraph& g,
                       const Cliques& cliques, bool is_maximal,
                       int num_threads) {
  la::Matrix x(cliques.size(), FeatureDim(mode));
  util::ParallelForRanges(cliques.size(), num_threads,
                          [&](size_t begin, size_t end) {
    FeatureScratch scratch;
    for (size_t i = begin; i < end; ++i) {
      ExtractInto(mode, g, cliques[i], is_maximal, &scratch, x.Row(i));
    }
  });
  return x;
}

}  // namespace

size_t FeatureExtractor::dim() const { return FeatureDim(mode_); }

la::Vector FeatureExtractor::Extract(const ProjectedGraph& g,
                                     CliqueView clique,
                                     bool is_maximal) const {
  return Extract(CsrGraph(g), clique, is_maximal);
}

la::Vector FeatureExtractor::Extract(const CsrGraph& g, CliqueView clique,
                                     bool is_maximal) const {
  FeatureScratch scratch;
  la::Vector out(dim());
  ExtractInto(mode_, g, clique, is_maximal, &scratch, out.data());
  return out;
}

void FeatureExtractor::ExtractRow(const CsrGraph& g, CliqueView clique,
                                  bool is_maximal, FeatureScratch* scratch,
                                  double* out) const {
  ExtractInto(mode_, g, clique, is_maximal, scratch, out);
}

la::Matrix FeatureExtractor::ExtractAll(const CsrGraph& g,
                                        std::span<const NodeSet> cliques,
                                        bool is_maximal,
                                        int num_threads) const {
  return ExtractRows(mode_, g, cliques, is_maximal, num_threads);
}

la::Matrix FeatureExtractor::ExtractAll(const CsrGraph& g,
                                        const CliqueStore& cliques,
                                        bool is_maximal,
                                        int num_threads) const {
  return ExtractRows(mode_, g, cliques, is_maximal, num_threads);
}

}  // namespace marioh::core
