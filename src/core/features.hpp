/// \file features.hpp
/// \brief Clique feature extraction for the multiplicity-aware classifier
/// (Sect. III-D) and for the SHyRe-Count-style structural features used by
/// the MARIOH-M ablation and the SHyRe baselines.
///
/// Every feature family is computed on an immutable `CsrGraph` snapshot;
/// work caps truncate neighbor sets in ascending-id order. The
/// reconstruction loop's `CliqueClassifier::ScoreAll` extracts per clique
/// inside one parallel loop over the frozen per-iteration snapshot, and
/// `ExtractAll` exposes the same batched parallel extraction standalone
/// (benches, tests, batch training).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "hypergraph/projected_graph.hpp"
#include "hypergraph/types.hpp"
#include "la/matrix.hpp"

namespace marioh::core {

/// Which feature family to compute for a clique.
enum class FeatureMode {
  /// The paper's multiplicity-aware features: weighted node degrees
  /// (aggregated), per-edge {multiplicity, MHH, MHH/multiplicity}
  /// (aggregated), plus {clique size, cut ratio, is-maximal}. 23 dims.
  kMultiplicityAware,
  /// SHyRe-Count-style purely structural features (no edge multiplicity):
  /// unweighted node degrees (aggregated), per-edge common-neighbor counts
  /// (aggregated), edge density of the neighborhood, clique size,
  /// is-maximal. 13 dims. Used by MARIOH-M and the SHyRe-Count baseline.
  kStructural,
  /// SHyRe-Motif features: the structural features plus motif statistics —
  /// per-node clustering coefficients and per-edge square (4-cycle) counts
  /// (both aggregated). 23 dims. Used by the SHyRe-Motif baseline.
  kMotif,
};

/// Working memory that one caller reuses across feature rows, so that a
/// row allocates nothing. `weight_to` is a dense per-node array, all zero
/// between rows, that holds one clique member's neighbor weights while
/// that member's pairs are measured; the lists hold one row's per-node and
/// per-edge values. It grows to the largest snapshot it has served and
/// must not be shared between concurrent calls.
struct FeatureScratch {
  std::vector<uint32_t> weight_to;
  std::vector<double> nodes, mult, mhh, ratio;
};

/// Extracts fixed-length feature vectors for cliques of a projected graph.
/// Node- and edge-level features are summarized with the five-number
/// aggregation {sum, mean, min, max, std} exactly as in the paper.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureMode mode) : mode_(mode) {}

  /// Dimensionality of the produced vectors.
  size_t dim() const;

  /// Feature vector of `clique` (a canonical NodeSet or CliqueView,
  /// size >= 2) measured on the snapshot `g`. `is_maximal` is the
  /// caller-supplied maximality indicator (cliques from the maximal
  /// enumeration pass 1, sub-cliques 0). A one-off: it sizes a fresh
  /// `FeatureScratch` to `g`, so callers extracting many rows use
  /// `ExtractRow` or `ExtractAll`.
  la::Vector Extract(const CsrGraph& g, CliqueView clique,
                     bool is_maximal) const;

  /// The same row written to `out` (`dim()` doubles), bit for bit, with
  /// `scratch` reused across calls: the path for callers that fill many
  /// rows. Multiplicity-aware rows scatter each clique member's weights
  /// into `scratch` once and read every pair's multiplicity and MHH off it
  /// (see src/core/README.md); the other modes build their row as above.
  void ExtractRow(const CsrGraph& g, CliqueView clique, bool is_maximal,
                  FeatureScratch* scratch, double* out) const;

  /// Convenience for one-off probes on the mutable graph: builds a
  /// `CsrGraph` snapshot of `g` on every call, then forwards to the
  /// overload above. Callers extracting many cliques should snapshot once.
  la::Vector Extract(const ProjectedGraph& g, CliqueView clique,
                     bool is_maximal) const;

  /// Batched extraction over candidate cliques: row i of the result is
  /// `Extract(g, cliques[i], is_maximal)`. Rows are independent output
  /// slots filled with `util::ParallelForRanges` (0 = all cores), one
  /// `FeatureScratch` per range, so the matrix is identical for any thread
  /// count.
  la::Matrix ExtractAll(const CsrGraph& g, std::span<const NodeSet> cliques,
                        bool is_maximal, int num_threads) const;

  /// Batched extraction straight off a clique arena (no per-clique
  /// NodeSet materialization) — the reconstruction loop's path.
  la::Matrix ExtractAll(const CsrGraph& g, const CliqueStore& cliques,
                        bool is_maximal, int num_threads) const;

  FeatureMode mode() const { return mode_; }

 private:
  FeatureMode mode_;
};

}  // namespace marioh::core
