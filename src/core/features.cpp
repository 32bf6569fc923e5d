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

la::Vector ExtractMultiplicityAware(const CsrGraph& g, CliqueView clique,
                                    bool is_maximal) {
  const size_t k = clique.size();

  // Node-level: weighted degree of each clique member.
  std::vector<double> wdeg;
  wdeg.reserve(k);
  for (NodeId u : clique) {
    wdeg.push_back(static_cast<double>(g.WeightedDegree(u)));
  }

  // Edge-level: multiplicity, MHH, MHH / multiplicity per clique edge.
  std::vector<double> mult, mhh, mhh_ratio;
  mult.reserve(k * (k - 1) / 2);
  mhh.reserve(mult.capacity());
  mhh_ratio.reserve(mult.capacity());
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

  // Clique-level: size, cut ratio, maximality.
  double boundary = 0.0;
  for (double d : wdeg) boundary += d;
  boundary -= 2.0 * internal_weight;  // each internal edge counted twice
  double cut_ratio = (internal_weight + boundary) > 0
                         ? internal_weight / (internal_weight + boundary)
                         : 0.0;

  la::Vector out;
  out.reserve(FeatureDim(FeatureMode::kMultiplicityAware));
  auto append = [&out](const std::vector<double>& agg) {
    out.insert(out.end(), agg.begin(), agg.end());
  };
  append(util::Aggregate5(wdeg));
  append(util::Aggregate5(mult));
  append(util::Aggregate5(mhh));
  append(util::Aggregate5(mhh_ratio));
  out.push_back(static_cast<double>(k));
  out.push_back(cut_ratio);
  out.push_back(is_maximal ? 1.0 : 0.0);
  MARIOH_CHECK_EQ(out.size(), FeatureDim(FeatureMode::kMultiplicityAware));
  return out;
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

la::Vector ExtractImpl(FeatureMode mode, const CsrGraph& g, CliqueView clique,
                       bool is_maximal) {
  MARIOH_CHECK_GE(clique.size(), 2u);
  switch (mode) {
    case FeatureMode::kMultiplicityAware:
      return ExtractMultiplicityAware(g, clique, is_maximal);
    case FeatureMode::kStructural:
      return ExtractStructural(g, clique, is_maximal);
    case FeatureMode::kMotif:
      return ExtractMotif(g, clique, is_maximal);
  }
  MARIOH_CHECK(false);
  return {};
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
  return ExtractImpl(mode_, g, clique, is_maximal);
}

la::Matrix FeatureExtractor::ExtractAll(const CsrGraph& g,
                                        std::span<const NodeSet> cliques,
                                        bool is_maximal,
                                        int num_threads) const {
  la::Matrix x(cliques.size(), dim());
  util::ParallelFor(cliques.size(), num_threads, [&](size_t i) {
    la::Vector f = ExtractImpl(mode_, g, cliques[i], is_maximal);
    std::copy(f.begin(), f.end(), x.Row(i));
  });
  return x;
}

la::Matrix FeatureExtractor::ExtractAll(const CsrGraph& g,
                                        const CliqueStore& cliques,
                                        bool is_maximal,
                                        int num_threads) const {
  la::Matrix x(cliques.size(), dim());
  util::ParallelFor(cliques.size(), num_threads, [&](size_t i) {
    la::Vector f = ExtractImpl(mode_, g, cliques[i], is_maximal);
    std::copy(f.begin(), f.end(), x.Row(i));
  });
  return x;
}

}  // namespace marioh::core
