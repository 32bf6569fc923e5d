#include "baselines/shyre.hpp"

#include "api/registry.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/marioh.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace marioh::baselines {
namespace {

core::FeatureMode ToFeatureMode(ShyreFeatures f) {
  // Both SHyRe variants are multiplicity-blind; the motif variant adds
  // clustering-coefficient and square-count motif statistics.
  return f == ShyreFeatures::kCount ? core::FeatureMode::kStructural
                                    : core::FeatureMode::kMotif;
}

}  // namespace

Shyre::Shyre() : Shyre(Options()) {}

Shyre::Shyre(Options options, const util::CancelToken* cancel)
    : options_(std::move(options)),
      cancel_(cancel),
      classifier_(ToFeatureMode(options_.features), options_.classifier) {}

void Shyre::Train(const ProjectedGraph& g_source,
                  const Hypergraph& h_source) {
  util::Rng rng(options_.seed);
  classifier_.Train(g_source, h_source, &rng, cancel_);
  // A trip left the classifier untrained; the job is being abandoned.
  if (!classifier_.trained()) return;

  // Estimate rho(n, k): for each maximal clique of size n in G_S, count
  // source hyperedges of size k fully inside it; average per clique size.
  // The cliques stay in the enumeration arena — containment tests run on
  // views, so no per-clique NodeSet is ever materialized here.
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(g_source);
  const CliqueStore& maximal = enumerated.cliques;
  size_t max_n = 2;
  for (CliqueView q : maximal) max_n = std::max(max_n, q.size());

  std::vector<std::vector<double>> counts(max_n + 1);
  std::vector<size_t> cliques_of_size(max_n + 1, 0);
  for (auto& row : counts) row.assign(max_n + 1, 0.0);

  for (CliqueView q : maximal) {
    ++cliques_of_size[q.size()];
    // Count hyperedges contained in q, bucketed by size. Hyperedges are
    // few; test containment directly.
    for (const auto& [e, m] : h_source.edges()) {
      (void)m;
      if (e.size() > q.size()) continue;
      if (std::includes(q.begin(), q.end(), e.begin(), e.end())) {
        counts[q.size()][e.size()] += 1.0;
      }
    }
  }
  rho_.assign(max_n + 1, {});
  for (size_t n = 2; n <= max_n; ++n) {
    rho_[n].assign(max_n + 1, 0.0);
    if (cliques_of_size[n] == 0) continue;
    for (size_t k = 2; k <= n; ++k) {
      rho_[n][k] = counts[n][k] / static_cast<double>(cliques_of_size[n]);
    }
  }
}

double Shyre::Rho(size_t n, size_t k) const {
  if (n < rho_.size() && k < rho_[n].size()) return rho_[n][k];
  // Unseen clique size: fall back to the largest learned size.
  if (rho_.size() > 2) {
    size_t last = rho_.size() - 1;
    if (k < rho_[last].size()) return rho_[last][k];
  }
  return 0.0;
}

Hypergraph Shyre::Reconstruct(const ProjectedGraph& g_target) {
  Hypergraph h(g_target.num_nodes());
  util::Rng rng(options_.seed ^ 0xabcdef12345ULL);
  // One snapshot of G_T serves the enumeration and every score. Maximal
  // cliques stay in the enumeration arena; candidates are scored as
  // views, and the dedup lookup reuses one scratch key.
  const CsrGraph snapshot(g_target);
  MaximalCliqueResult enumerated = EnumerateMaximalCliques(snapshot);

  // Every scored candidate with its verdict (accepted or not), recorded
  // before scoring, so a candidate sampled again is neither re-extracted
  // nor re-scored. The first verdict is the only one a key can get: a
  // proper subset of a maximal clique is never maximal, so a key always
  // meets the same `is_maximal`, and scoring is deterministic.
  std::unordered_map<NodeSet, bool, util::VectorHash> verdicts;
  NodeSet lookup_key;  // reused buffer: no allocation per repeat
  auto consider = [&](CliqueView q, bool is_maximal) {
    if (q.size() < 2) return;
    lookup_key.assign(q.begin(), q.end());
    auto [verdict, fresh] = verdicts.try_emplace(lookup_key, false);
    if (!fresh) return;
    verdict->second =
        classifier_.Score(snapshot, q, is_maximal) > options_.threshold;
  };

  for (CliqueView q : enumerated.cliques) {
    consider(q, true);
    size_t budget = options_.max_candidates_per_clique;
    for (size_t k = 2; k < q.size() && budget > 0; ++k) {
      // Number of size-k candidates to sample from this clique, following
      // the learned rho (at least one sample when rho > 0).
      double expect = Rho(q.size(), k);
      size_t samples = static_cast<size_t>(std::ceil(expect));
      samples = std::min(samples, budget);
      for (size_t s = 0; s < samples; ++s) {
        NodeSet sub = rng.SampleWithoutReplacement(q, k);
        Canonicalize(&sub);
        consider(sub, false);
        --budget;
        if (budget == 0) break;
      }
    }
  }
  for (const auto& [q, accepted] : verdicts) {
    if (accepted) h.AddEdge(q, 1);
  }
  return h;
}

}  // namespace marioh::baselines

namespace marioh::baselines {
namespace {

/// Shared factory body for the two registered SHyRe feature families.
marioh::api::StatusOr<std::unique_ptr<marioh::api::Reconstructor>>
MakeShyre(ShyreFeatures features, const std::string& name,
          const marioh::api::MethodConfig& config) {
  Shyre::Options options;
  options.features = features;
  options.seed = config.seed;
  marioh::api::OverrideReader reader(config);
  reader.Get("threshold", &options.threshold);
  reader.Get("max_candidates_per_clique",
             &options.max_candidates_per_clique);
  MARIOH_RETURN_IF_ERROR(reader.Finish(name));
  // Session::Configure fills the typed base options with the job's cancel
  // token; training polls it like MARIOH's.
  const util::CancelToken* cancel =
      config.marioh_base != nullptr ? config.marioh_base->cancel : nullptr;
  std::unique_ptr<marioh::api::Reconstructor> method =
      std::make_unique<Shyre>(options, cancel);
  return method;
}

}  // namespace
}  // namespace marioh::baselines

MARIOH_REGISTER_METHOD(
    ShyreCount,
    (marioh::api::MethodInfo{
        .name = "SHyRe-Count",
        .summary = "supervised clique sampling + classification with "
                   "structural count features",
        .supervised = true,
        .multiplicity_aware = false,
        .table2_order = 7,
        .table3_order = -1}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::baselines::MakeShyre(
          marioh::baselines::ShyreFeatures::kCount, "SHyRe-Count", config);
    })

MARIOH_REGISTER_METHOD(
    ShyreMotif,
    (marioh::api::MethodInfo{
        .name = "SHyRe-Motif",
        .summary = "supervised clique sampling + classification with "
                   "count + motif features",
        .supervised = true,
        .multiplicity_aware = false,
        .table2_order = 6,
        .table3_order = -1}),
    [](const marioh::api::MethodConfig& config) {
      return marioh::baselines::MakeShyre(
          marioh::baselines::ShyreFeatures::kMotif, "SHyRe-Motif", config);
    })
