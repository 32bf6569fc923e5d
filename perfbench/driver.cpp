// In-process workloads of the MARIOH benchmark (see README.md).
//
//   perfbench_driver --workload solo_train|reconstruct_stream
//                    --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench_driver --workload served_reference --seed N
//                    --trace 0|1 [--spans PATH]
//
// Each run prints, as its last stdout line, one JSON object of raw
// samples that run.py turns into metrics. `served_reference` computes
// the threads=1 Session result on the served_mix datasets (what the
// daemon's `gen <name> enron <seed>` verb prepares), formatted like the
// daemon's `wait` reply, so served_mix can compare replies exactly.
//
// With --trace 1 the driver records spans around its calls into each
// layer (kept in memory, written to --spans at exit) and, outside the
// timed window, makes standalone calls into the layers below Session.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/session.hpp"
#include "core/bidirectional.hpp"
#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/filtering.hpp"
#include "core/marioh.hpp"
#include "eval/harness.hpp"
#include "hypergraph/clique.hpp"
#include "hypergraph/csr.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace marioh;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::optional<obs::MemorySample> memory = obs::SampleProcessMemory();
  if (memory) return static_cast<double>(memory->peak_rss_bytes) / (1 << 20);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(v[i]);
  }
  return out + "]";
}

[[noreturn]] void Fail(const std::string& what) {
  std::cerr << "perfbench_driver: " << what << "\n";
  std::exit(2);
}

[[noreturn]] void Die(const std::string& what, const api::Status& status) {
  Fail(what + ": " + status.ToString());
}

// ---------------------------------------------------------------- spans

/// A span around one layer call, recorded into the benchmark's own ring;
/// none in untraced runs (null ring). Nesting in the benchmark's code is
/// nesting in the trace (obs::TraceSpan links parents per thread).
std::optional<obs::TraceSpan> Span(obs::TraceRing* ring, const char* name,
                                   const std::string& request) {
  if (ring == nullptr) return std::nullopt;
  return std::optional<obs::TraceSpan>(std::in_place, name, request, ring);
}

/// Room for every span of a run: the ring must never evict.
constexpr size_t kRingCapacity = 1 << 16;

/// Mean seconds to open and close one span, measured on a scratch ring,
/// so run.py can state the overhead of the recorded spans.
double CostPerSpan() {
  constexpr int kSpans = 200'000;
  obs::TraceRing scratch(kSpans);
  double t0 = Now();
  for (int i = 0; i < kSpans; ++i) {
    obs::TraceSpan span("session.reconstruct", "r", &scratch);
  }
  return (Now() - t0) / kSpans;
}

/// Writes the ring's spans as JSON lines (id, parent, name, request,
/// start, end in seconds on the trace clock); exits if any was evicted.
void WriteSpans(const obs::TraceRing& ring, const std::string& path) {
  if (ring.size() >= ring.capacity()) Fail("span ring full; spans lost");
  std::ofstream out(path);
  for (const obs::SpanRecord& s : ring.Snapshot()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent_id
        << ",\"name\":\"" << s.name << "\",\"request\":\"" << s.detail
        << "\",\"start\":" << Num(s.start_seconds)
        << ",\"end\":" << Num(s.start_seconds + s.duration_seconds) << "}\n";
  }
}

// ------------------------------------------------------------- workload

/// One reconstruction target: its prepared dataset, a trained Session,
/// and the threads=1 reference result every timed request must match.
struct Target {
  std::string profile;
  bool reduced = true;
  uint64_t seed = 1;
  std::string name;  ///< profile@seed
  eval::PreparedDataset data;
  std::unique_ptr<api::Session> session;
  api::EvaluationResult reference;
};

api::SessionOptions MakeOptions(int threads) {
  api::SessionOptions options;
  options.method = "MARIOH";
  options.marioh.num_threads = threads;
  return options;
}

bool Same(const api::EvaluationResult& a, const api::EvaluationResult& b) {
  return a.jaccard == b.jaccard && a.multi_jaccard == b.multi_jaccard &&
         a.reconstructed_unique_edges == b.reconstructed_unique_edges &&
         a.reconstructed_total_edges == b.reconstructed_total_edges;
}

/// Configure + Train on `t`, with a span per stage.
std::unique_ptr<api::Session> TrainSession(const Target& t, int threads,
                                           obs::TraceRing* ring,
                                           const std::string& request) {
  auto session = std::make_unique<api::Session>();
  {
    auto span = Span(ring, "session.configure", request);
    api::Status s = session->Configure(MakeOptions(threads));
    if (!s.ok()) Die("configure", s);
  }
  auto span = Span(ring, "session.train", request);
  api::Status s = session->Train(t.data.train());
  if (!s.ok()) Die("train " + t.name, s);
  return session;
}

/// The Session's `reconstruct.*` loop counters (session totals).
using LoopCounts = std::map<std::string, double>;

LoopCounts ReadLoopCounts(const util::StageTimer& timer) {
  LoopCounts counts;
  for (const auto& [name, value] : timer.stages()) {
    if (name.rfind("reconstruct.", 0) == 0) counts[name.substr(12)] = value;
  }
  return counts;
}

std::string CountsJson(const LoopCounts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + Num(value);
  }
  return out + "}";
}

/// One timed request of the window.
struct Request {
  std::string target;
  double latency = 0.0;
  double train = 0.0, reconstruct = 0.0, evaluate = 0.0;
  double reconstruct_cpu = 0.0;  ///< process CPU seconds during Reconstruct
  double score = 0.0;            ///< Jaccard x100 (multi-Jaccard if preserved)
  bool ok = false;
};

/// Runs Reconstruct + Evaluate on `session` (already trained), filling
/// the request's stage times and loop counters. nullopt on a failed
/// stage.
std::optional<api::EvaluationResult> ReconstructAndEvaluate(
    api::Session* session, const Target& t, obs::TraceRing* ring,
    const std::string& request, Request* out, LoopCounts* loop) {
  const util::StageTimer& timer = session->stage_timer();
  LoopCounts before = ReadLoopCounts(timer);
  double rec_before = timer.Get("reconstruct");
  double eval_before = timer.Get("evaluate");
  double cpu0 = ProcessCpuSeconds();
  api::Status s;
  {
    auto span = Span(ring, "session.reconstruct", request);
    s = session->Reconstruct(t.data.target_input());
  }
  out->reconstruct_cpu = ProcessCpuSeconds() - cpu0;
  if (!s.ok()) {
    std::cerr << "request " << request << ": " << s.ToString() << "\n";
    return std::nullopt;
  }
  std::optional<api::StatusOr<api::EvaluationResult>> evaluated;
  {
    auto span = Span(ring, "session.evaluate", request);
    evaluated.emplace(session->Evaluate(*t.data.target));
  }
  const api::StatusOr<api::EvaluationResult>& result = *evaluated;
  if (!result.ok()) {
    std::cerr << "request " << request << ": " << result.status().ToString()
              << "\n";
    return std::nullopt;
  }
  out->reconstruct = timer.Get("reconstruct") - rec_before;
  out->evaluate = timer.Get("evaluate") - eval_before;
  for (const auto& [name, value] : ReadLoopCounts(timer)) {
    (*loop)[name] = value - before[name];
  }
  out->score = 100.0 * (t.reduced ? result->jaccard : result->multi_jaccard);
  return *result;
}

/// One timed request on a trained session: the output must equal the
/// target's threads=1 reference exactly.
void CheckedRequest(api::Session* session, const Target& t,
                    obs::TraceRing* ring, const std::string& request,
                    Request* out, LoopCounts* loop) {
  std::optional<api::EvaluationResult> result =
      ReconstructAndEvaluate(session, t, ring, request, out, loop);
  out->ok = result.has_value() && Same(*result, t.reference);
  if (result.has_value() && !out->ok) {
    std::cerr << "request " << request << ": output differs from the "
              << "threads=1 reference on " << t.name << "\n";
  }
}

/// Reconstruct + Evaluate on a trained session whose result becomes the
/// reference; exits on failure.
api::EvaluationResult MustReconstruct(api::Session* session, const Target& t,
                                      Request* out, LoopCounts* loop) {
  std::optional<api::EvaluationResult> result =
      ReconstructAndEvaluate(session, t, nullptr, "reference", out, loop);
  if (!result) Fail("reference run on " + t.name + " failed");
  return *result;
}

eval::PreparedDataset Prepare(const Target& t, std::vector<double>* times) {
  double t0 = Now();
  api::StatusOr<eval::PreparedDataset> data =
      eval::TryPrepareDataset(t.profile, t.reduced, t.seed);
  if (!data.ok()) Die("prepare " + t.name, data.status());
  times->push_back(Now() - t0);
  return std::move(*data);
}

// --------------------------------------------------------------- probes

/// Standalone calls into the layers below Session::Train on the
/// workload's source pair (outside the timed window), in the order
/// CliqueClassifier::Train makes them internally.
std::string ProbeTrain(const Target& t, core::CliqueClassifier* classifier,
                       obs::TraceRing* ring) {
  const std::string request = "probe.train." + t.name;
  core::MariohOptions defaults;
  auto root = Span(ring, "probe.train", request);

  double t0 = Now();
  MaximalCliqueResult source_cliques;
  {
    auto span = Span(ring, "clique.enumerate_source", request);
    source_cliques = EnumerateMaximalCliques(*t.data.g_source);
  }
  double enumerate_s = Now() - t0;

  t0 = Now();
  {
    auto span = Span(ring, "classifier.train", request);
    util::Rng rng(1);  // the Session's default seed, as Marioh::Train uses
    classifier->Train(*t.data.g_source, *t.data.source, &rng);
  }
  double train_s = Now() - t0;
  auto [positives, negatives] = classifier->train_counts();

  CsrGraph source_csr(*t.data.g_source);
  t0 = Now();
  la::Matrix features;
  {
    auto span = Span(ring, "features.extract", request);
    features = classifier->extractor().ExtractAll(
        source_csr, source_cliques.cliques, true, 1);
  }
  double extract_s = Now() - t0;
  const size_t features_rows = features.rows();
  if (features_rows == 0) Fail("no source cliques on " + t.name);

  // Mlp::Fit on the classifier's training shape (rows = positives +
  // negatives, columns = feature dim, its MlpOptions), filled like its
  // training matrix and standardized the same way: positives are the
  // source's unique hyperedges, negatives its maximal cliques, cycled
  // (the classifier also samples sub-cliques and edges). On maximal-clique
  // rows alone the fit read slower than the whole of Train, so its time
  // depends on the rows, not only on their number.
  size_t rows = positives + negatives;
  size_t dim = classifier->extractor().dim();
  std::vector<NodeSet> hyperedges = t.data.source->UniqueEdges();
  std::vector<NodeSet> maximal = source_cliques.cliques.ToNodeSets();
  std::unordered_set<NodeSet, util::VectorHash> maximal_set(maximal.begin(),
                                                            maximal.end());
  la::Matrix x(rows, dim);
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (i < positives) {
      const NodeSet& e = hyperedges[i % hyperedges.size()];
      la::Vector f = classifier->extractor().Extract(
          *t.data.g_source, e, maximal_set.count(e) > 0);
      std::copy(f.begin(), f.end(), x.Row(i));
      y[i] = 1.0;
    } else {
      const double* row = features.Row((i - positives) % features_rows);
      std::copy(row, row + dim, x.Row(i));
    }
  }
  ml::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(&x);
  const ml::MlpOptions& mlp_options = defaults.classifier.mlp;
  ml::Mlp mlp(dim, 1, mlp_options);
  t0 = Now();
  {
    auto span = Span(ring, "mlp.fit", request);
    mlp.Fit(x, y);
  }
  double fit_s = Now() - t0;

  // Dense multiply-adds per sample and epoch: 2 FLOP per weight forward,
  // 4 backward (input gradient + weight gradient).
  double weights = 0.0;
  size_t prev = dim;
  for (size_t width : mlp_options.hidden) {
    weights += static_cast<double>(prev * width);
    prev = width;
  }
  weights += static_cast<double>(prev);
  double gflop = 6.0 * weights * static_cast<double>(rows) *
                 mlp_options.epochs / 1e9;

  return "{\"enumerate_source_s\":" + Num(enumerate_s) +
         ",\"classifier_train_s\":" + Num(train_s) +
         ",\"positives\":" + Num(positives) +
         ",\"negatives\":" + Num(negatives) +
         ",\"features_extract_s\":" + Num(extract_s) +
         ",\"features_rows\":" + Num(features_rows) +
         ",\"fit_s\":" + Num(fit_s) + ",\"fit_gflop\":" + Num(gflop) + "}";
}

/// Standalone calls into the layers below Session::Reconstruct on the
/// target graph: Filtering, a CSR build of the filtered graph, its
/// maximal cliques, ScoreAll and one BidirectionalSearch iteration.
std::string ProbeReconstruct(const Target& t,
                             const core::CliqueClassifier& classifier,
                             int threads, obs::TraceRing* ring,
                             bool extract_features) {
  const std::string request = "probe.reconstruct." + t.name;
  core::MariohOptions defaults;

  auto root = Span(ring, "probe.reconstruct", request);
  ProjectedGraph g = *t.data.g_target;
  Hypergraph h(g.num_nodes());
  double t0 = Now();
  core::FilteringStats fstats;
  {
    auto span = Span(ring, "filtering", request);
    CsrGraph pre;
    fstats = core::Filtering(&g, &h, threads, &pre);
  }
  double filtering_s = Now() - t0;

  t0 = Now();
  CsrGraph csr;
  {
    auto span = Span(ring, "csr.build", request);
    csr = CsrGraph(g, threads);
  }
  double csr_s = Now() - t0;

  CliqueOptions copts;
  copts.num_threads = threads;
  t0 = Now();
  MaximalCliqueResult cliques;
  {
    auto span = Span(ring, "clique.enumerate", request);
    cliques = EnumerateMaximalCliques(csr, copts);
  }
  double enumerate_s = Now() - t0;

  t0 = Now();
  {
    auto span = Span(ring, "mlp.score", request);
    classifier.ScoreAll(csr, cliques.cliques, true, threads);
  }
  double score_s = Now() - t0;

  double extract_s = 0.0;
  size_t rows = 0;
  if (extract_features) {
    t0 = Now();
    auto span = Span(ring, "features.extract", request);
    rows = classifier.extractor()
               .ExtractAll(csr, cliques.cliques, true, threads)
               .rows();
    extract_s = Now() - t0;
  }

  core::BidirectionalOptions bopt;
  bopt.theta = defaults.theta_init;
  bopt.r_percent = defaults.r_percent;
  bopt.num_threads = threads;
  util::Rng rng(defaults.seed ^ 0x9e3779b97f4a7c15ULL);
  t0 = Now();
  {
    auto span = Span(ring, "bidir.iteration", request);
    core::BidirectionalSearch(&g, csr, classifier, bopt, &rng, &h);
  }
  double bidir_s = Now() - t0;

  return "{\"filtering_s\":" + Num(filtering_s) +
         ",\"filtering_edges\":" + Num(fstats.edges_identified) +
         ",\"csr_build_s\":" + Num(csr_s) +
         ",\"enumerate_s\":" + Num(enumerate_s) +
         ",\"score_s\":" + Num(score_s) +
         ",\"features_extract_s\":" + Num(extract_s) +
         ",\"features_rows\":" + Num(rows) +
         ",\"bidir_iteration_s\":" + Num(bidir_s) + "}";
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

/// Seed of the i-th dataset of a run: every run draws its datasets from
/// its own --seed, so one seed always gives the same inputs.
uint64_t DatasetSeed(uint64_t seed, size_t i) { return seed * 64 + i; }

Target MakeTarget(const std::string& profile, bool reduced, uint64_t seed) {
  Target t;
  t.profile = profile;
  t.reduced = reduced;
  t.seed = seed;
  t.name = profile + "@" + std::to_string(seed);
  return t;
}

/// Standalone layer calls on every target (outside the timed window):
/// `"probe_train":[...],"probe_reconstruct":[...]`. The train-side calls
/// run only where the window trains.
std::string ProbeTargets(const std::vector<Target>& targets, int threads,
                         bool train_side, obs::TraceRing* ring) {
  core::MariohOptions defaults;
  std::string train = "[", reconstruct = "[";
  for (size_t i = 0; i < targets.size(); ++i) {
    core::CliqueClassifier classifier(defaults.feature_mode,
                                      defaults.classifier);
    if (train_side) {
      if (i > 0) train += ",";
      train += ProbeTrain(targets[i], &classifier, ring);
    } else {
      util::Rng rng(1);
      classifier.Train(*targets[i].data.g_source, *targets[i].data.source,
                       &rng);
    }
    if (i > 0) reconstruct += ",";
    reconstruct += ProbeReconstruct(targets[i], classifier, threads, ring,
                                    /*extract_features=*/!train_side);
  }
  return "\"probe_train\":" + train + "],\"probe_reconstruct\":" +
         reconstruct + "]";
}

/// solo_train: one closed-loop caller; each request is a fresh Session
/// Configure -> Train -> Reconstruct -> Evaluate, threads=1, cycling over
/// four `eu` datasets. reconstruct_stream: Sessions trained in set-up on
/// two `eu` (reduced) and two `pschool` (preserved) datasets, threads=4;
/// each request takes the next target and runs Reconstruct + Evaluate.
int RunWorkload(const Args& args) {
  const bool solo = args.workload == "solo_train";
  const int threads = solo ? 1 : 4;
  std::unique_ptr<obs::TraceRing> ring_owner;
  if (args.trace) ring_owner = std::make_unique<obs::TraceRing>(kRingCapacity);
  obs::TraceRing* ring = ring_owner.get();

  // Four datasets per run average out the seed-to-seed spread of the
  // inputs; reconstruct_stream alternates multiplicity settings.
  std::vector<Target> targets;
  for (size_t i = 0; i < 4; ++i) {
    bool preserved = !solo && i % 2 == 1;
    targets.push_back(MakeTarget(preserved ? "pschool" : "eu", !preserved,
                                 DatasetSeed(args.seed, i)));
  }

  // Set-up, repeated: every repetition prepares the datasets and (on
  // reconstruct_stream) trains the Sessions. The first repetition's
  // Sessions run threads=1 and give the reference results.
  const int setup_reps = solo ? 15 : 2;
  std::vector<double> setup_s, prepare_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    double t0 = Now();
    for (Target& t : targets) {
      t.data = Prepare(t, &prepare_s);
      if (!solo) {
        t.session = TrainSession(t, rep == 0 ? 1 : threads, nullptr, "");
      }
    }
    setup_s.push_back(Now() - t0);
    if (rep == 0) {
      for (Target& t : targets) {
        std::unique_ptr<api::Session> reference =
            solo ? TrainSession(t, 1, nullptr, "") : std::move(t.session);
        Request r;
        LoopCounts loop;
        t.reference = MustReconstruct(reference.get(), t, &r, &loop);
      }
    }
  }

  // Timed window: closed loop, one request in flight.
  std::vector<Request> requests;
  LoopCounts cycle;  // loop counters of the first request on each target
  double window_start = Now();
  double deadline = window_start + args.seconds;
  std::optional<obs::TraceSpan> window = Span(ring, "window", "window");
  for (size_t i = 0; Now() < deadline; ++i) {
    Target& t = targets[i % targets.size()];
    std::string id = "r" + std::to_string(i + 1);
    Request r;
    r.target = t.name;
    LoopCounts loop;
    double t0 = Now();
    {
      auto span = Span(ring, "request", id);
      if (solo) {
        std::unique_ptr<api::Session> session =
            TrainSession(t, threads, ring, id);
        r.train = session->stage_timer().Get("train");
        CheckedRequest(session.get(), t, ring, id, &r, &loop);
      } else {
        CheckedRequest(t.session.get(), t, ring, id, &r, &loop);
      }
    }
    r.latency = Now() - t0;
    if (i < targets.size()) {
      for (const auto& [name, value] : loop) cycle[name] += value;
    }
    requests.push_back(r);
  }
  window.reset();
  double window_s = Now() - window_start;
  double peak_rss = PeakRssMb();

  std::ostringstream json;
  json << "{\"setup_s\":" << NumList(setup_s)
       << ",\"prepare_s\":" << NumList(prepare_s)
       << ",\"window_s\":" << Num(window_s)
       << ",\"peak_rss_mb\":" << Num(peak_rss) << ",\"requests\":[";
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    json << (i ? "," : "") << "{\"target\":\"" << r.target
         << "\",\"latency\":" << Num(r.latency) << ",\"train\":"
         << Num(r.train) << ",\"reconstruct\":" << Num(r.reconstruct)
         << ",\"evaluate\":" << Num(r.evaluate)
         << ",\"reconstruct_cpu\":" << Num(r.reconstruct_cpu)
         << ",\"score\":" << Num(r.score)
         << ",\"ok\":" << (r.ok ? "true" : "false") << "}";
  }
  json << "],\"cycle\":" << CountsJson(cycle);
  // Outside the window: standalone layer probes (traced runs only).
  if (ring) {
    json << "," << ProbeTargets(targets, threads, solo, ring)
         << ",\"span_cost_s\":" << Num(CostPerSpan());
    WriteSpans(*ring, args.spans);
  }
  json << "}";
  std::cout << json.str() << std::endl;
  return 0;
}

/// The served_mix oracle: for each of the `enron` datasets the daemon
/// serves, the threads=1 Session result on what `gen <name> enron <seed>`
/// prepares (default request seed), formatted like the daemon's `wait`
/// reply, plus the cycle's stage times and loop counters. With --trace 1
/// it also makes the standalone layer calls on the same inputs.
int RunServedReference(const Args& args) {
  // Homogeneous jobs keep the percentiles steady; 32 datasets average out
  // the cost differences between the enron graphs a seed draws, and a
  // reference costs about 0.2 s.
  constexpr const char* kProfile = "enron";
  constexpr size_t kDatasets = 32;
  std::unique_ptr<obs::TraceRing> ring_owner;
  if (args.trace) ring_owner = std::make_unique<obs::TraceRing>(kRingCapacity);
  obs::TraceRing* ring = ring_owner.get();
  std::vector<Target> targets;
  std::vector<double> prepare_s;
  std::string replies = "[", seeds = "[";
  double train = 0.0, reconstruct = 0.0, evaluate = 0.0, cpu = 0.0;
  LoopCounts cycle;
  for (size_t i = 0; i < kDatasets; ++i) {
    Target t = MakeTarget(kProfile, true, DatasetSeed(args.seed, i));
    t.data = Prepare(t, &prepare_s);
    std::unique_ptr<api::Session> session = TrainSession(t, 1, nullptr, "");
    Request r;
    LoopCounts loop;
    api::EvaluationResult result =
        MustReconstruct(session.get(), t, &r, &loop);
    train += session->stage_timer().Get("train");
    reconstruct += r.reconstruct;
    evaluate += r.evaluate;
    cpu += r.reconstruct_cpu;
    for (const auto& [name, value] : loop) cycle[name] += value;
    // LineProtocol::FormatJob's stream formatting.
    std::ostringstream reply;
    reply << "{\"unique_edges\":\"" << result.reconstructed_unique_edges
          << "\",\"total_edges\":\"" << result.reconstructed_total_edges
          << "\",\"jaccard\":\"" << result.jaccard
          << "\",\"multi_jaccard\":\"" << result.multi_jaccard << "\"}";
    replies += (i > 0 ? "," : "") + reply.str();
    seeds += (i > 0 ? "," : "") + std::to_string(t.seed);
    targets.push_back(std::move(t));
  }
  std::ostringstream json;
  json << "{\"profile\":\"" << kProfile << "\",\"replies\":" << replies
       << "],\"seeds\":" << seeds << "]"
       << ",\"prepare_s\":" << NumList(prepare_s)
       << ",\"train\":" << Num(train)
       << ",\"reconstruct\":" << Num(reconstruct)
       << ",\"evaluate\":" << Num(evaluate)
       << ",\"reconstruct_cpu\":" << Num(cpu)
       << ",\"cycle\":" << CountsJson(cycle);
  if (ring) {
    json << "," << ProbeTargets(targets, 1, true, ring);
    WriteSpans(*ring, args.spans);
  }
  json << "}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      std::cerr << "perfbench_driver: unknown argument " << key << "\n";
      return 2;
    }
  }
  if (args.trace && args.spans.empty()) {
    std::cerr << "perfbench_driver: --trace 1 needs --spans PATH\n";
    return 2;
  }
  if (args.workload == "served_reference") return RunServedReference(args);
  if (args.workload != "solo_train" &&
      args.workload != "reconstruct_stream") {
    std::cerr << "perfbench_driver: --workload solo_train|"
                 "reconstruct_stream|served_reference\n";
    return 2;
  }
  return RunWorkload(args);
}
