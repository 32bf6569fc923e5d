// Online-appendix experiment: feature importance of the multiplicity-aware
// clique features, measured by permutation importance — shuffle one
// feature group's columns across the evaluation set and report the drop in
// clique-classification accuracy. The paper's finding: multiplicity-
// derived features (edge multiplicity, MHH, MHH ratio) carry most of the
// signal.
//
// Usage: bench_appendix_importance [--quick]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/features.hpp"
#include "eval/harness.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using marioh::NodeSet;

struct FeatureGroup {
  std::string name;
  size_t begin;  // first feature index (inclusive)
  size_t end;    // last feature index (exclusive)
};

// Multiplicity-aware layout (23 dims; see FeatureExtractor):
// [0,5) weighted degree agg, [5,10) edge multiplicity agg,
// [10,15) MHH agg, [15,20) MHH-ratio agg, 20 size, 21 cut ratio,
// 22 maximal flag.
const std::vector<FeatureGroup> kGroups = {
    {"weighted degree", 0, 5}, {"edge multiplicity", 5, 10},
    {"MHH", 10, 15},           {"MHH ratio", 15, 20},
    {"clique size", 20, 21},   {"cut ratio", 21, 22},
    {"is maximal", 22, 23},
};

double Accuracy(const marioh::ml::Mlp& mlp, const marioh::la::Matrix& x,
                const std::vector<double>& y) {
  size_t correct = 0;
  for (size_t i = 0; i < x.rows(); ++i) {
    marioh::la::Vector row(x.Row(i), x.Row(i) + x.cols());
    double p = mlp.Predict(row);
    if ((p > 0.5) == (y[i] > 0.5)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::vector<std::string> datasets =
      quick ? std::vector<std::string>{"enron"}
            : std::vector<std::string>{"enron", "pschool", "eu"};

  marioh::util::TextTable table(
      "Appendix: permutation importance of multiplicity-aware features "
      "(accuracy drop)");
  std::vector<std::string> header = {"Feature group"};
  header.insert(header.end(), datasets.begin(), datasets.end());
  table.SetHeader(header);
  std::vector<std::vector<std::string>> rows(kGroups.size());
  for (size_t i = 0; i < kGroups.size(); ++i) rows[i] = {kGroups[i].name};

  for (const std::string& dataset : datasets) {
    marioh::eval::PreparedDataset data = marioh::eval::PrepareDataset(
        dataset, /*multiplicity_reduced=*/true, /*seed=*/42);
    marioh::core::FeatureExtractor extractor(
        marioh::core::FeatureMode::kMultiplicityAware);

    // Labeled cliques of the source graph: hyperedges positive, maximal
    // cliques + random sub-cliques negative.
    std::vector<NodeSet> cliques;
    std::vector<double> labels;
    std::unordered_set<NodeSet, marioh::util::VectorHash> hyperedges;
    for (const auto& [e, m] : data.source->edges()) {
      (void)m;
      hyperedges.insert(e);
      cliques.push_back(e);
      labels.push_back(1.0);
    }
    marioh::util::Rng rng(7);
    const marioh::CsrGraph snapshot(*data.g_source);
    for (const NodeSet& q :
         marioh::EnumerateMaximalCliques(snapshot).cliques.ToNodeSets()) {
      if (hyperedges.count(q) > 0) continue;
      cliques.push_back(q);
      labels.push_back(0.0);
      if (q.size() > 2) {
        NodeSet sub = rng.SampleWithoutReplacement(
            q, 2 + rng.UniformIndex(q.size() - 2));
        marioh::Canonicalize(&sub);
        if (sub.size() >= 2 && hyperedges.count(sub) == 0) {
          cliques.push_back(sub);
          labels.push_back(0.0);
        }
      }
    }

    marioh::la::Matrix x =
        extractor.ExtractAll(snapshot, cliques, true, /*num_threads=*/1);
    marioh::ml::StandardScaler scaler;
    scaler.Fit(x);
    scaler.Transform(&x);
    marioh::ml::MlpOptions options;
    options.seed = 11;
    marioh::ml::Mlp mlp(extractor.dim(), 1, options);
    mlp.Fit(x, labels);
    double base = Accuracy(mlp, x, labels);

    for (size_t gi = 0; gi < kGroups.size(); ++gi) {
      // Permute the group's columns across rows and measure the drop.
      marioh::la::Matrix permuted = x;
      std::vector<size_t> perm(x.rows());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      marioh::util::Rng shuffle_rng(100 + gi);
      shuffle_rng.Shuffle(&perm);
      for (size_t i = 0; i < x.rows(); ++i) {
        for (size_t j = kGroups[gi].begin; j < kGroups[gi].end; ++j) {
          permuted(i, j) = x(perm[i], j);
        }
      }
      double dropped = base - Accuracy(mlp, permuted, labels);
      rows[gi].push_back(marioh::util::TextTable::Num(dropped, 4));
    }
    std::cerr << "[importance] " << dataset << " base accuracy " << base
              << "\n";
  }
  for (auto& row : rows) table.AddRow(row);
  std::cout << table.Render() << std::endl;
  return 0;
}
