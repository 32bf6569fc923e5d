// Seed-fixed mutation fuzzing of the entry points that read untrusted
// bytes: `api::ParseReconstructRequest` (the `submit` grammar, also the
// journal's accept-record format), `net::LineProtocol::Handle` (every
// front end's request line) and the `io::TryRead*` dataset readers. A
// corpus of valid `submit` lines is mutated with byte flips, inserted and
// deleted tokens, duplicated keys and truncations; a corpus of small
// valid dataset files with byte flips, truncations, out-of-range and
// negative numbers and duplicated lines. The properties:
//   - every input gets a Status and nothing throws or aborts;
//   - a parse that is OK and passes ValidateRequestSerializable survives
//     Serialize → Parse field for field, and re-serializes to the same
//     line;
//   - every Handle call answers exactly one `ok ...` / `error ...` line;
//   - a dataset that reads OK has no node id above io::kMaxNodeId.
// The iteration counts are fixed so the suite stays a few seconds in a
// Release build; the sanitizer builds run it as part of the full suite.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/request.hpp"
#include "api/service.hpp"
#include "io/text_io.hpp"
#include "net/line_protocol.hpp"
#include "util/rng.hpp"

namespace marioh {
namespace {

using api::ReconstructRequest;
using api::Status;

constexpr int kParseIterations = 100000;
constexpr int kHandleIterations = 10000;
constexpr int kReadIterations = 20000;

/// Valid `submit` argument lists over the `fuzz` dataset triple, together
/// covering every typed key of the grammar plus a few overrides.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      "method=MARIOH train=fuzz.train target=fuzz.target truth=fuzz.truth "
      "seed=3",
      "method=MaxClique target=fuzz.target",
      "method=MARIOH train=fuzz.train target=fuzz.target "
      "priority=interactive client=alice deadline=5 budget=2.5",
      "method=MARIOH train=fuzz.train target=fuzz.target retries=2 "
      "backoff=0.01 backoff_mult=2 backoff_cap=0.5 jitter=0.1 "
      "retryable=unavailable,internal",
      "method=MaxClique target=fuzz.target truth=fuzz.truth threads=2 "
      "seed=18446744073709551615 priority=batch",
      "method=MARIOH train=fuzz.train target=fuzz.target theta_init=0.8 "
      "alpha=0.05 r_percent=10",
      // Parses, but the job must end INVALID_ARGUMENT at Configure.
      "method=MARIOH train=fuzz.train target=fuzz.target theta_init=nan",
  };
  return corpus;
}

/// Tokens the inserter splices in: valid keys, edge values, and shapes
/// the grammar must reject.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> dictionary = {
      // Valid typed keys and overrides, some naming the wrong dataset kind.
      "seed=0", "budget=-1", "deadline=0", "priority=normal", "client=bob",
      "retries=0", "backoff=0", "backoff_mult=1", "backoff_cap=0",
      "jitter=0", "retryable=cancelled", "threads=1", "theta_init=0.5",
      "method=MaxClique", "train=fuzz.truth", "target=fuzz.train",
      "truth=fuzz.target", "kthreads=2",
      // Edge values: non-finite, out-of-range and odd numeric spellings.
      "budget=nan", "deadline=inf", "deadline=-0", "budget=1e999",
      "deadline=1e300", "retries=2147483647", "retries=99999999999",
      "seed=-1", "seed=0x10", "backoff=1e-320",
      // Malformed shapes and stray verbs.
      "=", "key=", "=value", "priority=", "method=", "a=b=c", "retryable=,",
      "retryable=unavailable,", "submit", "#", "wait",
  };
  return dictionary;
}

std::vector<std::string> SplitTokens(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

/// Applies one to three random mutations to `text`. Byte flips never
/// write '\n': every front end frames requests on it, so no line reaches
/// the parser carrying one.
std::string Mutate(std::string text, util::Rng* rng) {
  const size_t rounds = 1 + rng->UniformIndex(3);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::string> tokens = SplitTokens(text);
    switch (rng->UniformIndex(5)) {
      case 0: {  // byte flip
        if (text.empty()) break;
        char byte = static_cast<char>(rng->UniformIndex(256));
        if (byte == '\n') byte = ' ';
        text[rng->UniformIndex(text.size())] = byte;
        break;
      }
      case 1: {  // insert a dictionary token
        const std::vector<std::string>& dictionary = Dictionary();
        auto at = static_cast<std::ptrdiff_t>(
            rng->UniformIndex(tokens.size() + 1));
        tokens.insert(tokens.begin() + at,
                      dictionary[rng->UniformIndex(dictionary.size())]);
        text = JoinTokens(tokens);
        break;
      }
      case 2: {  // delete a token
        if (tokens.empty()) break;
        auto at =
            static_cast<std::ptrdiff_t>(rng->UniformIndex(tokens.size()));
        tokens.erase(tokens.begin() + at);
        text = JoinTokens(tokens);
        break;
      }
      case 3: {  // duplicate a key, with its own or a changed value
        if (tokens.empty()) break;
        std::string copy = tokens[rng->UniformIndex(tokens.size())];
        if (rng->UniformIndex(2) == 0) copy += '1';
        tokens.push_back(copy);
        text = JoinTokens(tokens);
        break;
      }
      default:  // truncate
        text.resize(rng->UniformIndex(text.size() + 1));
        break;
    }
  }
  return text;
}

void ExpectSameRequest(const ReconstructRequest& a,
                       const ReconstructRequest& b,
                       const std::string& context) {
  EXPECT_EQ(a.method, b.method) << context;
  EXPECT_EQ(a.train_dataset, b.train_dataset) << context;
  EXPECT_EQ(a.target_dataset, b.target_dataset) << context;
  EXPECT_EQ(a.ground_truth_dataset, b.ground_truth_dataset) << context;
  EXPECT_EQ(a.seed, b.seed) << context;
  EXPECT_EQ(a.time_budget_seconds, b.time_budget_seconds) << context;
  EXPECT_EQ(a.deadline_seconds, b.deadline_seconds) << context;
  EXPECT_EQ(a.priority, b.priority) << context;
  EXPECT_EQ(a.client_id, b.client_id) << context;
  EXPECT_EQ(a.retry.max_attempts, b.retry.max_attempts) << context;
  EXPECT_EQ(a.retry.initial_backoff_seconds, b.retry.initial_backoff_seconds)
      << context;
  EXPECT_EQ(a.retry.backoff_multiplier, b.retry.backoff_multiplier)
      << context;
  EXPECT_EQ(a.retry.max_backoff_seconds, b.retry.max_backoff_seconds)
      << context;
  EXPECT_EQ(a.retry.jitter_fraction, b.retry.jitter_fraction) << context;
  EXPECT_EQ(a.retry.retryable, b.retry.retryable) << context;
  EXPECT_EQ(a.overrides, b.overrides) << context;
}

TEST(Fuzz, ParsedRequestsRoundTripFieldForField) {
  util::Rng rng(20261018);
  int round_trips = 0;
  for (int i = 0; i < kParseIterations; ++i) {
    const std::vector<std::string>& corpus = Corpus();
    std::string text = Mutate(corpus[rng.UniformIndex(corpus.size())], &rng);
    ReconstructRequest parsed;
    Status status = ParseReconstructRequest(text, &parsed);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument) << text;
      EXPECT_FALSE(status.message().empty()) << text;
      continue;
    }
    if (!api::ValidateRequestSerializable(parsed).ok()) continue;
    std::string wire = api::SerializeReconstructRequest(parsed);
    ReconstructRequest reparsed;
    Status again = ParseReconstructRequest(wire, &reparsed);
    ASSERT_TRUE(again.ok()) << "input: " << text << "\nwire: " << wire
                            << "\n" << again.ToString();
    ExpectSameRequest(parsed, reparsed, "input: " + text + "\nwire: " + wire);
    EXPECT_EQ(api::SerializeReconstructRequest(reparsed), wire) << text;
    if (HasFailure()) return;  // one clear report, not thousands
    ++round_trips;
  }
  // The mutations are mild enough that a good share still parses; a
  // collapse here would mean the corpus stopped exercising round trips.
  EXPECT_GT(round_trips, kParseIterations / 10);
}

/// Serves `line` and checks the framing: blank and comment lines and a
/// deferred `wait` answer nothing, everything else exactly one `ok ...` /
/// `error ...` line. Returns the response.
std::string HandleOneLine(net::LineProtocol* protocol,
                          const std::string& line) {
  net::LineProtocol::Result result = protocol->Handle(line);
  std::istringstream args(line);
  std::string verb;
  args >> verb;
  if (verb.empty() || verb[0] == '#' || result.wait_for.has_value()) {
    EXPECT_TRUE(result.response.empty()) << line;
    return result.response;
  }
  const std::string& response = result.response;
  EXPECT_FALSE(response.empty()) << line;
  EXPECT_EQ(response.find('\n'), response.size() - 1)
      << "line: " << line << "\nresponse: " << response;
  EXPECT_TRUE(response.rfind("ok ", 0) == 0 ||
              response.rfind("error ", 0) == 0)
      << "line: " << line << "\nresponse: " << response;
  return response;
}

TEST(Fuzz, EveryHandledLineGetsExactlyOneResponseLine) {
  const std::string dir = testing::TempDir() + "/marioh_fuzz_journal";
  std::filesystem::remove_all(dir);
  auto cache = std::make_shared<api::DatasetCache>();
  ASSERT_TRUE(net::GenerateDataset(cache.get(), "fuzz", "crime", 1).ok());
  api::ServiceOptions options;
  options.num_workers = 1;
  options.max_queued_jobs = 4;
  // Journaling puts every accepted request through Validate + Serialize.
  options.journal_dir = dir;
  options.journal_fsync = util::JournalFsync::kNever;
  {
    api::Service service(cache, options);
    ASSERT_TRUE(service.startup_status().ok());
    net::LineProtocol protocol(cache.get(), &service);
    protocol.set_default_client("fuzz-client");

    util::Rng rng(20261019);
    int accepted = 0;
    for (int i = 0; i < kHandleIterations; ++i) {
      const std::vector<std::string>& corpus = Corpus();
      std::string response = HandleOneLine(
          &protocol,
          Mutate("submit " + corpus[rng.UniformIndex(corpus.size())], &rng));
      if (HasFailure()) return;
      if (response.rfind("ok job ", 0) != 0) continue;
      // Cancel every accepted job at once, so the queue stays short and
      // later valid submits are admitted rather than turned away.
      ++accepted;
      HandleOneLine(&protocol, "cancel " + response.substr(7));
      if (HasFailure()) return;
    }
    // A good share of mutants must get through the whole submit path.
    EXPECT_GT(accepted, kHandleIterations / 20);
  }
  std::filesystem::remove_all(dir);
}

// ---- Dataset readers -------------------------------------------------------

/// Small valid files in the hypergraph format (`u v ... [x m]`).
const std::vector<std::string>& HypergraphFiles() {
  static const std::vector<std::string> files = {
      "# three hyperedges\n0 1 2\n1 3 x 4\n\n2 4 5 6 x 2\n",
      "5 6\n6 7 8\n5 6\n7 8 x 1\n",
      "0 1 2 3 4 5 6 7 8 9\n",
      // Running multiplicities at the 32-bit limit.
      "1 2 x 4294967295\n1 2 x 2\n",
  };
  return files;
}

/// Small valid files in the weighted edge-list format (`u v [w]`).
const std::vector<std::string>& GraphFiles() {
  static const std::vector<std::string> files = {
      "0 1 2\n1 2\n# weights default to 1\n2 3 5\n",
      "3 4\n4 5 1\n\n3 5 7\n",
      "0 9 1\n",
      // Running weights at the 32-bit limit.
      "0 1 4294967295\n0 1 1\n",
  };
  return files;
}

/// Tokens a mutation swaps in: small ids, ids and counts past the
/// readers' ranges, negatives and other spellings they must reject.
/// Every out-of-range value stays out of range under a one-digit flip or
/// a one-digit truncation, so no mutant names millions of nodes.
const std::vector<std::string>& NumberTokens() {
  static const std::vector<std::string> tokens = {
      "0", "1", "7", "x", "99999999999", "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616", "-1", "-0", "+3",
      "1e3", "0x10", "nan", "3.5", "#",
  };
  return tokens;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

/// Applies one to three random mutations to a dataset file.
std::string MutateFile(std::string text, util::Rng* rng) {
  const size_t rounds = 1 + rng->UniformIndex(3);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::string> lines = SplitLines(text);
    switch (rng->UniformIndex(5)) {
      case 0:  // byte flip, newlines and NULs included
        if (text.empty()) break;
        text[rng->UniformIndex(text.size())] =
            static_cast<char>(rng->UniformIndex(256));
        break;
      case 1:  // truncate
        text.resize(rng->UniformIndex(text.size() + 1));
        break;
      case 2: {  // duplicate a line
        if (lines.empty()) break;
        const std::string line = lines[rng->UniformIndex(lines.size())];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rng->UniformIndex(lines.size() + 1)),
                     line);
        text = JoinLines(lines);
        break;
      }
      default: {  // replace a token, or append one, with a number token
        if (lines.empty()) lines.emplace_back();
        std::string& line = lines[rng->UniformIndex(lines.size())];
        std::vector<std::string> tokens = SplitTokens(line);
        const std::string& token =
            NumberTokens()[rng->UniformIndex(NumberTokens().size())];
        if (tokens.empty() || rng->UniformIndex(4) == 0) {
          tokens.push_back(token);
        } else {
          tokens[rng->UniformIndex(tokens.size())] = token;
        }
        line = JoinTokens(tokens);
        text = JoinLines(lines);
        break;
      }
    }
  }
  return text;
}

/// A failed read must be a described kInvalidArgument.
void ExpectInvalidArgument(const Status& status, const std::string& text) {
  EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument) << text;
  EXPECT_FALSE(status.message().empty()) << text;
}

TEST(Fuzz, DatasetReadersReturnAStatusForEveryInput) {
  util::Rng rng(20261020);
  int hypergraphs_read = 0;
  int graphs_read = 0;
  for (int i = 0; i < kReadIterations; ++i) {
    const std::vector<std::string>& hypergraph_files = HypergraphFiles();
    std::string text = MutateFile(
        hypergraph_files[rng.UniformIndex(hypergraph_files.size())], &rng);
    std::istringstream hypergraph_in(text);
    api::StatusOr<Hypergraph> h = io::TryReadHypergraph(hypergraph_in);
    if (h.ok()) {
      EXPECT_LE(h->num_nodes(), size_t{io::kMaxNodeId} + 1) << text;
      // No running multiplicity wrapped: the 32-bit counts add up to the
      // total.
      uint64_t multiplicities = 0;
      for (const auto& [edge, m] : h->edges()) multiplicities += m;
      EXPECT_EQ(multiplicities, h->num_total_edges()) << text;
      ++hypergraphs_read;
    } else {
      ExpectInvalidArgument(h.status(), text);
    }

    const std::vector<std::string>& graph_files = GraphFiles();
    text = MutateFile(graph_files[rng.UniformIndex(graph_files.size())],
                      &rng);
    std::istringstream graph_in(text);
    api::StatusOr<ProjectedGraph> g = io::TryReadProjectedGraph(graph_in);
    if (g.ok()) {
      EXPECT_LE(g->num_nodes(), size_t{io::kMaxNodeId} + 1) << text;
      // No running weight wrapped to 0 on a counted edge.
      for (const ProjectedGraph::Edge& e : g->Edges()) {
        EXPECT_GT(e.weight, 0u) << text;
      }
      ++graphs_read;
    } else {
      ExpectInvalidArgument(g.status(), text);
    }
    if (HasFailure()) return;  // one clear report, not thousands
  }
  // Both outcomes must stay common, or the corpus stopped exercising one.
  for (int read : {hypergraphs_read, graphs_read}) {
    EXPECT_GT(read, kReadIterations / 10);
    EXPECT_LT(read, kReadIterations * 9 / 10);
  }
}

}  // namespace
}  // namespace marioh
