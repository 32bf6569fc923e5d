// Microbenchmarks of the hot kernels inside MARIOH's reconstruction loop:
// MHH computation (Eq. (1)) on the mutable graph and on the CSR snapshot,
// snapshot build and patch, maximal-clique enumeration, feature
// extraction, filtering and clique peeling, with thread sweeps for the
// parallel kernels (timed in wall time) — and the classifier's MLP fit
// and batched inference (labelled with the kernel variant that ran).
// google-benchmark based; pass
// `--benchmark_out=bench_micro.json --benchmark_out_format=json` to record
// a machine-readable trajectory (CI uploads this as an artifact).

#include <benchmark/benchmark.h>

#include "core/features.hpp"
#include "core/filtering.hpp"
#include "gen/hypercl.hpp"
#include "obs/metrics.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_kernel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using marioh::CliqueOptions;
using marioh::CsrGraph;
using marioh::NodeId;
using marioh::NodeSet;
using marioh::ProjectedGraph;

ProjectedGraph MakeGraph(size_t num_nodes, size_t num_edges) {
  marioh::util::Rng rng(7);
  marioh::Hypergraph h = marioh::gen::HyperClLike(
      num_nodes, num_edges, /*size_mean=*/3.2, /*degree_skew=*/0.7, &rng);
  return h.Project();
}

// ---- MHH (Eq. (1)) -------------------------------------------------------

void BM_Mhh(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = edges[i % edges.size()];
    benchmark::DoNotOptimize(g.Mhh(e.u, e.v));
    ++i;
  }
}
BENCHMARK(BM_Mhh)->Arg(500)->Arg(2000);

void BM_CsrMhh(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  CsrGraph csr(g);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = edges[i % edges.size()];
    benchmark::DoNotOptimize(csr.Mhh(e.u, e.v));
    ++i;
  }
}
BENCHMARK(BM_CsrMhh)->Arg(500)->Arg(2000);

// ---- CSR snapshot construction ------------------------------------------

void BM_CsrBuild(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(2000, 4000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(g));
  }
}
BENCHMARK(BM_CsrBuild);

// ---- Maximal-clique enumeration -----------------------------------------

// Default public path (CSR snapshot, single thread, arena output).
void BM_MaximalCliques(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(static_cast<size_t>(state.range(0)),
                               static_cast<size_t>(state.range(0)) * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(g));
  }
}
BENCHMARK(BM_MaximalCliques)->Arg(200)->Arg(800);

// Thread sweep over the CSR fast path (snapshot built once, as in the
// reconstruction loop where one snapshot serves the whole iteration).
void BM_MaximalCliquesCsrThreads(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  CliqueOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(csr, options));
  }
}
BENCHMARK(BM_MaximalCliquesCsrThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// ---- Clique emission layout ---------------------------------------------

// Arena emission: cliques land in the flat CliqueStore and stay there —
// the path the reconstruction loop consumes (snapshot built once, as in
// an iteration).
void BM_CliqueEmissionArena(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marioh::EnumerateMaximalCliques(csr));
  }
}
BENCHMARK(BM_CliqueEmissionArena);

// Per-clique NodeSet materialization on top of the same enumeration (the
// deprecated copy-out shim): one heap allocation per clique, the cost the
// arena removed from the hot path.
void BM_CliqueEmissionNodeSets(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 1600);
  CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        marioh::EnumerateMaximalCliques(csr).cliques.ToNodeSets());
  }
}
BENCHMARK(BM_CliqueEmissionNodeSets);

// ---- CSR snapshot patching ----------------------------------------------

// Peels maximal cliques of `base` until at least `percent` of the nodes
// are touched; returns the peeled graph and the sorted touched set.
std::pair<ProjectedGraph, std::vector<NodeId>> PeelUntilTouched(
    const ProjectedGraph& base, const CsrGraph& snapshot, int percent) {
  ProjectedGraph g = base;
  std::vector<NodeId> touched;
  std::vector<bool> seen(base.num_nodes(), false);
  size_t distinct = 0;
  const size_t want =
      (base.num_nodes() * static_cast<size_t>(percent) + 99) / 100;
  marioh::MaximalCliqueResult enumerated =
      marioh::EnumerateMaximalCliques(snapshot);
  for (marioh::CliqueView q : enumerated.cliques) {
    if (distinct >= want) break;
    if (!g.IsClique(q)) continue;
    g.PeelClique(q);
    for (NodeId u : q) {
      touched.push_back(u);
      if (!seen[u]) {
        seen[u] = true;
        ++distinct;
      }
    }
  }
  marioh::Canonicalize(&touched);
  return {std::move(g), std::move(touched)};
}

// Patch-based snapshot refresh at Arg(percent)% touched nodes — the
// incremental path of the reconstruction loop's snapshot upkeep.
void BM_CsrPatchRebuild(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  CsrGraph prev(base);
  auto [g, touched] =
      PeelUntilTouched(base, prev, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(prev, g, touched));
  }
  state.counters["touched_nodes"] =
      static_cast<double>(touched.size());
}
BENCHMARK(BM_CsrPatchRebuild)->Arg(1)->Arg(10)->Arg(50);

// From-scratch build of the same peeled graph — what the patch replaces.
void BM_CsrPatchRebuildBaseline(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  CsrGraph prev(base);
  auto [g, touched] =
      PeelUntilTouched(base, prev, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(g));
  }
  state.counters["touched_nodes"] =
      static_cast<double>(touched.size());
}
BENCHMARK(BM_CsrPatchRebuildBaseline)->Arg(1)->Arg(10)->Arg(50);

// ---- Feature extraction --------------------------------------------------

void BM_FeatureExtractionCsr(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(500, 1500);
  CsrGraph csr(g);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  // One row at a time through a reused scratch, as the batched paths do.
  marioh::core::FeatureScratch scratch;
  marioh::la::Vector row(extractor.dim());
  size_t i = 0;
  for (auto _ : state) {
    extractor.ExtractRow(csr, cliques[i % cliques.size()], true, &scratch,
                         row.data());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_FeatureExtractionCsr);

// Thread sweep of the batched extraction used by clique scoring.
void BM_FeatureExtractAllThreads(benchmark::State& state) {
  ProjectedGraph g = MakeGraph(800, 2400);
  CsrGraph csr(g);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.ExtractAll(csr, cliques, true, threads));
  }
}
BENCHMARK(BM_FeatureExtractAllThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// ---- Filtering (Algorithm 2) --------------------------------------------

void BM_FilteringThreads(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(2000, 4000);
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    ProjectedGraph g = base;
    marioh::Hypergraph h(g.num_nodes());
    state.ResumeTiming();
    benchmark::DoNotOptimize(marioh::core::Filtering(&g, &h, threads));
  }
}
BENCHMARK(BM_FilteringThreads)->Arg(1)->Arg(4)
    ->UseRealTime();

// ---- Clique peeling ------------------------------------------------------

void BM_PeelClique(benchmark::State& state) {
  ProjectedGraph base = MakeGraph(500, 1500);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(base).cliques.ToNodeSets();
  for (auto _ : state) {
    state.PauseTiming();
    ProjectedGraph g = base;
    state.ResumeTiming();
    for (const NodeSet& q : cliques) {
      if (g.IsClique(q)) g.PeelClique(q);
    }
  }
}
BENCHMARK(BM_PeelClique);

// ---- End-to-end scoring scaling -----------------------------------------

void BM_ParallelScoringScaling(benchmark::State& state) {
  // Thread scaling of the clique-scoring hot loop (feature extraction is
  // the dominant cost inside BidirectionalSearch).
  ProjectedGraph g = MakeGraph(800, 2400);
  CsrGraph csr(g);
  marioh::core::FeatureExtractor extractor(
      marioh::core::FeatureMode::kMultiplicityAware);
  std::vector<NodeSet> cliques = marioh::EnumerateMaximalCliques(g).cliques.ToNodeSets();
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<double> sums(cliques.size());
    marioh::util::ParallelForRanges(cliques.size(), threads,
                                    [&](size_t begin, size_t end) {
      marioh::core::FeatureScratch scratch;
      marioh::la::Vector f(extractor.dim());
      for (size_t i = begin; i < end; ++i) {
        extractor.ExtractRow(csr, cliques[i], true, &scratch, f.data());
        double s = 0;
        for (double v : f) s += v;
        sums[i] = s;
      }
    });
    benchmark::DoNotOptimize(sums);
  }
}
BENCHMARK(BM_ParallelScoringScaling)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime();

// ---- MLP fit and batched inference --------------------------------------
// The classifier M's shapes on the `eu` train stage: 6000 rows of the 23
// multiplicity-aware features, hidden {64, 32}, batch 64 (epochs reduced
// from 60). The GFLOP rate counter counts 2 FLOP per weight and row forward
// and 4 backward. BM_MlpFit's 10 epochs are 940 Adam steps, most of them
// past t = 356, where the bias correction bc1 is exactly 1.0 and the
// update skips dividing by it, as in most of a 60-epoch fit.

constexpr size_t kMlpRows = 6000;
constexpr size_t kMlpDim = 23;

double MlpWeights(const marioh::ml::MlpOptions& options) {
  double weights = 0.0;
  size_t prev = kMlpDim;
  for (size_t width : options.hidden) {
    weights += static_cast<double>(prev * width);
    prev = width;
  }
  return weights + static_cast<double>(prev);
}

marioh::la::Matrix MlpFeatures(size_t rows, std::vector<double>* labels) {
  marioh::util::Rng rng(11);
  marioh::la::Matrix x(rows, kMlpDim);
  labels->assign(rows, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < kMlpDim; ++j) x(i, j) = rng.Normal();
    (*labels)[i] = rng.Bernoulli(0.25) ? 1.0 : 0.0;
  }
  return x;
}

void BM_MlpFit(benchmark::State& state) {
  std::vector<double> y;
  marioh::la::Matrix x = MlpFeatures(kMlpRows, &y);
  marioh::ml::MlpOptions options;
  options.epochs = 10;
  for (auto _ : state) {
    marioh::ml::Mlp mlp(kMlpDim, 1, options);
    benchmark::DoNotOptimize(mlp.Fit(x, y));
  }
  state.counters["GFLOP"] = benchmark::Counter(
      6.0 * MlpWeights(options) * kMlpRows * options.epochs * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(marioh::ml::kernel::Dispatched().name);
}
BENCHMARK(BM_MlpFit)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MlpPredictBatch(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  std::vector<double> y;
  marioh::la::Matrix x = MlpFeatures(rows, &y);
  marioh::ml::MlpOptions options;
  marioh::ml::Mlp mlp(kMlpDim, 1, options);
  for (auto _ : state) {
    marioh::la::Vector p = mlp.PredictBatch(x);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP"] = benchmark::Counter(
      2.0 * MlpWeights(options) * static_cast<double>(rows) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(marioh::ml::kernel::Dispatched().name);
}
// 32 rows is one ScoreAll chunk; 6000 the whole training set.
BENCHMARK(BM_MlpPredictBatch)->Arg(32)->Arg(6000)->UseRealTime();

// ---- Observability overhead guards --------------------------------------
// The obs instruments sit at stage/job granularity, never inside the
// kernels above — these guards keep the primitives themselves cheap
// enough that a future hot-path instrumentation stays honest: a counter
// add is one relaxed fetch_add, a disabled histogram observe is one
// relaxed load and a branch.

void BM_ObsCounterAdd(benchmark::State& state) {
  marioh::obs::MetricRegistry registry;
  marioh::obs::Counter* counter = registry.GetCounter("bench_total");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  marioh::obs::MetricRegistry registry;
  marioh::obs::Histogram* histogram =
      registry.GetHistogram("bench_seconds");
  double value = 1e-5;
  for (auto _ : state) {
    histogram->Observe(value);
    value = value < 1.0 ? value * 1.0000001 : 1e-5;
  }
  benchmark::DoNotOptimize(histogram->count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsHistogramObserveDisabled(benchmark::State& state) {
  marioh::obs::SetEnabled(false);
  marioh::obs::MetricRegistry registry;
  marioh::obs::Histogram* histogram =
      registry.GetHistogram("bench_seconds");
  for (auto _ : state) {
    histogram->Observe(1e-5);
  }
  benchmark::DoNotOptimize(histogram->count());
  marioh::obs::SetEnabled(true);
}
BENCHMARK(BM_ObsHistogramObserveDisabled);

}  // namespace

BENCHMARK_MAIN();
