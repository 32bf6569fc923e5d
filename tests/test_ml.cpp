// Unit tests for the ML substrate: standard scaler, MLP training on
// separable problems (sigmoid and softmax heads), the MLP's byte-for-byte
// agreement with a per-sample reference implementation, every compiled
// kernel variant against scalar loops, and the GCN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>

#include "hypergraph/projected_graph.hpp"
#include "ml/gcn.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_kernel.hpp"
#include "ml/scaler.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace marioh::ml {
namespace {

TEST(StandardScaler, CentersAndScales) {
  la::Matrix x(4, 2);
  x(0, 0) = 1; x(1, 0) = 3; x(2, 0) = 5; x(3, 0) = 7;   // mean 4
  x(0, 1) = 10; x(1, 1) = 10; x(2, 1) = 10; x(3, 1) = 10;  // constant
  StandardScaler scaler;
  scaler.Fit(x);
  EXPECT_DOUBLE_EQ(scaler.mean()[0], 4.0);
  la::Matrix t = x;
  scaler.Transform(&t);
  double col_mean = (t(0, 0) + t(1, 0) + t(2, 0) + t(3, 0)) / 4.0;
  EXPECT_NEAR(col_mean, 0.0, 1e-12);
  // Constant dimension: centered but not divided by ~0.
  EXPECT_NEAR(t(0, 1), 0.0, 1e-12);
}

TEST(StandardScaler, TransformSingleVector) {
  la::Matrix x(2, 1);
  x(0, 0) = 0;
  x(1, 0) = 2;
  StandardScaler scaler;
  scaler.Fit(x);
  la::Vector v{2.0};
  scaler.Transform(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);  // (2 - 1) / 1
}

TEST(Mlp, LearnsLinearlySeparable2D) {
  // y = 1 iff x0 + x1 > 0.
  util::Rng rng(1);
  const size_t n = 400;
  la::Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = (x(i, 0) + x(i, 1) > 0) ? 1.0 : 0.0;
  }
  MlpOptions options;
  options.hidden = {16};
  options.epochs = 120;
  options.learning_rate = 3e-3;
  options.seed = 2;
  Mlp mlp(2, 1, options);
  double loss = mlp.Fit(x, y);
  EXPECT_LT(loss, 0.15);
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    double p = mlp.Predict({x(i, 0), x(i, 1)});
    if ((p > 0.5) == (y[i] > 0.5)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.95);
}

TEST(Mlp, LearnsXorWithHiddenLayer) {
  la::Matrix x(4, 2);
  x(0, 0) = 0; x(0, 1) = 0;
  x(1, 0) = 0; x(1, 1) = 1;
  x(2, 0) = 1; x(2, 1) = 0;
  x(3, 0) = 1; x(3, 1) = 1;
  std::vector<double> y{0, 1, 1, 0};
  MlpOptions options;
  options.hidden = {16};
  options.epochs = 800;
  options.batch_size = 4;
  options.learning_rate = 5e-3;
  options.seed = 3;
  Mlp mlp(2, 1, options);
  mlp.Fit(x, y);
  EXPECT_LT(mlp.Predict({0, 0}), 0.5);
  EXPECT_GT(mlp.Predict({0, 1}), 0.5);
  EXPECT_GT(mlp.Predict({1, 0}), 0.5);
  EXPECT_LT(mlp.Predict({1, 1}), 0.5);
}

TEST(Mlp, SoftmaxLearnsThreeClasses) {
  // Three well-separated blobs.
  util::Rng rng(4);
  const size_t per = 60;
  la::Matrix x(3 * per, 2);
  std::vector<double> y(3 * per);
  const double centers[3][2] = {{0, 0}, {5, 5}, {-5, 5}};
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per; ++i) {
      size_t row = c * per + i;
      x(row, 0) = centers[c][0] + rng.Normal(0, 0.5);
      x(row, 1) = centers[c][1] + rng.Normal(0, 0.5);
      y[row] = static_cast<double>(c);
    }
  }
  MlpOptions options;
  options.hidden = {16};
  options.head = Head::kSoftmax;
  options.epochs = 150;
  options.learning_rate = 5e-3;
  options.seed = 5;
  Mlp mlp(2, 3, options);
  mlp.Fit(x, y);
  std::vector<uint32_t> pred = mlp.PredictClasses(x);
  size_t correct = 0;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == static_cast<uint32_t>(y[i])) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / pred.size(), 0.98);
}

TEST(Mlp, PredictProbaSumsToOne) {
  MlpOptions options;
  options.head = Head::kSoftmax;
  options.seed = 6;
  Mlp mlp(3, 4, options);
  la::Vector probs = mlp.PredictProba({0.1, -0.2, 0.3});
  double sum = 0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, DeterministicGivenSeed) {
  util::Rng rng(8);
  la::Matrix x(50, 3);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Normal();
    y[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  MlpOptions options;
  options.epochs = 10;
  options.seed = 99;
  Mlp a(3, 1, options);
  Mlp b(3, 1, options);
  a.Fit(x, y);
  b.Fit(x, y);
  for (int t = 0; t < 5; ++t) {
    la::Vector probe{0.1 * t, -0.2 * t, 0.05};
    EXPECT_DOUBLE_EQ(a.Predict(probe), b.Predict(probe));
  }
}

TEST(Mlp, OutputsAreProbabilities) {
  MlpOptions options;
  options.seed = 12;
  Mlp mlp(2, 1, options);
  for (double v : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    double p = mlp.Predict({v, -v});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity oracle. ReferenceMlp is the per-sample implementation the
// batched Mlp replaced, copied here verbatim (Adam and loss expressions
// included): one Forward per sample, gradients accumulated sample by
// sample. The batched Mlp must reproduce its loss and outputs byte for
// byte.

double RefSigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

void RefSoftmaxInPlace(la::Vector* z) {
  double mx = *std::max_element(z->begin(), z->end());
  double sum = 0.0;
  for (double& v : *z) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (double& v : *z) v /= sum;
}

class ReferenceMlp {
 public:
  ReferenceMlp(size_t input_dim, size_t output_dim, const MlpOptions& options)
      : options_(options) {
    dims_.push_back(input_dim);
    for (size_t h : options_.hidden) dims_.push_back(h);
    dims_.push_back(output_dim);
    util::Rng rng(options_.seed);
    for (size_t l = 0; l + 1 < dims_.size(); ++l) {
      size_t fan_in = dims_[l];
      size_t fan_out = dims_[l + 1];
      double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
      la::Matrix w(fan_out, fan_in);
      for (size_t i = 0; i < fan_out; ++i) {
        for (size_t j = 0; j < fan_in; ++j) {
          w(i, j) = rng.Normal(0.0, scale);
        }
      }
      weights_.push_back(std::move(w));
      biases_.emplace_back(fan_out, 0.0);
      m_w_.emplace_back(fan_out, fan_in);
      v_w_.emplace_back(fan_out, fan_in);
      m_b_.emplace_back(fan_out, 0.0);
      v_b_.emplace_back(fan_out, 0.0);
    }
  }

  double Fit(const la::Matrix& x, const std::vector<double>& y) {
    const size_t n = x.rows();
    util::Rng rng(options_.seed ^ 0x5bd1e995u);
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    const size_t num_layers = weights_.size();
    double last_epoch_loss = 0.0;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(&order);
      double epoch_loss = 0.0;
      size_t processed = 0;
      for (size_t start = 0; start < n; start += options_.batch_size) {
        size_t end = std::min(n, start + options_.batch_size);
        size_t bs = end - start;
        std::vector<la::Matrix> gw;
        std::vector<la::Vector> gb;
        for (size_t l = 0; l < num_layers; ++l) {
          gw.emplace_back(weights_[l].rows(), weights_[l].cols());
          gb.emplace_back(biases_[l].size(), 0.0);
        }
        for (size_t idx = start; idx < end; ++idx) {
          size_t row = order[idx];
          la::Vector input(x.Row(row), x.Row(row) + x.cols());
          std::vector<la::Vector> acts;
          la::Vector logits = Forward(input, &acts);
          la::Vector delta(logits.size());
          if (options_.head == Head::kSigmoid) {
            double p = RefSigmoid(logits[0]);
            double target = y[row];
            delta[0] = p - target;
            epoch_loss += -(target * std::log(std::max(p, 1e-12)) +
                            (1 - target) * std::log(std::max(1 - p, 1e-12)));
          } else {
            la::Vector probs = logits;
            RefSoftmaxInPlace(&probs);
            size_t target = static_cast<size_t>(y[row]);
            for (size_t i = 0; i < probs.size(); ++i) {
              delta[i] = probs[i] - (i == target ? 1.0 : 0.0);
            }
            epoch_loss += -std::log(std::max(probs[target], 1e-12));
          }
          for (size_t l = num_layers; l-- > 0;) {
            const la::Vector& a_in = acts[l];
            for (size_t i = 0; i < delta.size(); ++i) {
              gb[l][i] += delta[i];
              double* grow = gw[l].Row(i);
              for (size_t j = 0; j < a_in.size(); ++j) {
                grow[j] += delta[i] * a_in[j];
              }
            }
            if (l == 0) break;
            la::Vector prev(dims_[l], 0.0);
            for (size_t j = 0; j < prev.size(); ++j) {
              double s = 0.0;
              for (size_t i = 0; i < delta.size(); ++i) {
                s += weights_[l](i, j) * delta[i];
              }
              prev[j] = acts[l][j] > 0.0 ? s : 0.0;
            }
            delta = std::move(prev);
          }
        }
        double inv = 1.0 / static_cast<double>(bs);
        for (size_t l = 0; l < num_layers; ++l) {
          gw[l].Scale(inv);
          for (double& v : gb[l]) v *= inv;
        }
        ++adam_t_;
        for (size_t l = 0; l < num_layers; ++l) AdamStep(l, gw[l], gb[l]);
        processed += bs;
      }
      last_epoch_loss = epoch_loss / static_cast<double>(processed);
    }
    return last_epoch_loss;
  }

  double Predict(const la::Vector& x) const {
    return RefSigmoid(Forward(x, nullptr)[0]);
  }

  la::Vector PredictProba(const la::Vector& x) const {
    la::Vector logits = Forward(x, nullptr);
    RefSoftmaxInPlace(&logits);
    return logits;
  }

 private:
  la::Vector Forward(const la::Vector& x,
                     std::vector<la::Vector>* activations) const {
    la::Vector cur = x;
    if (activations != nullptr) {
      activations->clear();
      activations->push_back(cur);
    }
    for (size_t l = 0; l < weights_.size(); ++l) {
      la::Vector next = weights_[l].Apply(cur);
      for (size_t i = 0; i < next.size(); ++i) next[i] += biases_[l][i];
      bool is_output = (l + 1 == weights_.size());
      if (!is_output) {
        for (double& v : next) v = std::max(0.0, v);
      }
      cur = std::move(next);
      if (activations != nullptr) activations->push_back(cur);
    }
    return cur;
  }

  void AdamStep(size_t layer, const la::Matrix& grad_w,
                const la::Vector& grad_b) {
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEps = 1e-8;
    double lr = options_.learning_rate;
    double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
    double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
    la::Matrix& w = weights_[layer];
    la::Matrix& mw = m_w_[layer];
    la::Matrix& vw = v_w_[layer];
    for (size_t i = 0; i < w.rows(); ++i) {
      for (size_t j = 0; j < w.cols(); ++j) {
        double g = grad_w(i, j) + options_.weight_decay * w(i, j);
        mw(i, j) = kBeta1 * mw(i, j) + (1 - kBeta1) * g;
        vw(i, j) = kBeta2 * vw(i, j) + (1 - kBeta2) * g * g;
        double mhat = mw(i, j) / bc1;
        double vhat = vw(i, j) / bc2;
        w(i, j) -= lr * mhat / (std::sqrt(vhat) + kEps);
      }
    }
    la::Vector& b = biases_[layer];
    la::Vector& mb = m_b_[layer];
    la::Vector& vb = v_b_[layer];
    for (size_t i = 0; i < b.size(); ++i) {
      double g = grad_b[i];
      mb[i] = kBeta1 * mb[i] + (1 - kBeta1) * g;
      vb[i] = kBeta2 * vb[i] + (1 - kBeta2) * g * g;
      double mhat = mb[i] / bc1;
      double vhat = vb[i] / bc2;
      b[i] -= lr * mhat / (std::sqrt(vhat) + kEps);
    }
  }

  MlpOptions options_;
  std::vector<size_t> dims_;
  std::vector<la::Matrix> weights_;
  std::vector<la::Vector> biases_;
  std::vector<la::Matrix> m_w_, v_w_;
  std::vector<la::Vector> m_b_, v_b_;
  int64_t adam_t_ = 0;
};

bool SameBytes(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Normal features with every fifth entry exactly zero, so ReLU inputs and
/// gradient products also meet signed zeros.
la::Matrix OracleFeatures(size_t n, size_t dim, util::Rng* rng) {
  la::Matrix x(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      x(i, j) = (i * dim + j) % 5 == 4 ? 0.0 : rng->Normal();
    }
  }
  return x;
}

TEST(Mlp, BatchedMatchesPerSampleOracleByteForByte) {
  // {20, 9} leaves partial vectors at every width the kernel runs at.
  const std::vector<std::vector<size_t>> hiddens = {
      {64, 32}, {20, 9}, {5}, {}};
  // 150 rows: not a multiple of batch sizes 7 or 64.
  const size_t n = 150;
  const size_t probes = 37;
  for (Head head : {Head::kSigmoid, Head::kSoftmax}) {
    for (size_t dim : {1u, 13u, 23u}) {
      for (const std::vector<size_t>& hidden : hiddens) {
        // Batch 2 runs 450 Adam steps over the two Fits, past t = 356
        // where bc1 rounds to 1.0 (batch 1 runs 900).
        for (size_t batch : {1u, 2u, 7u, 64u}) {
          SCOPED_TRACE(testing::Message()
                       << "head=" << (head == Head::kSigmoid ? "sigmoid"
                                                             : "softmax")
                       << " dim=" << dim << " hidden=" << hidden.size()
                       << " batch=" << batch);
          const size_t classes = head == Head::kSigmoid ? 1 : 3;
          util::Rng rng(1000 + dim * 7 + batch + hidden.size());
          la::Matrix x = OracleFeatures(n, dim, &rng);
          std::vector<double> y(n);
          for (size_t i = 0; i < n; ++i) {
            y[i] = static_cast<double>(rng.UniformIndex(classes == 1 ? 2
                                                                     : 3));
          }
          la::Matrix probe = OracleFeatures(probes, dim, &rng);

          MlpOptions options;
          options.hidden = hidden;
          options.head = head;
          options.epochs = 3;
          options.batch_size = batch;
          options.seed = 17 + batch;
          Mlp mlp(dim, classes, options);
          ReferenceMlp ref(dim, classes, options);
          // Two Fits: the second continues from the first's Adam state.
          for (int round = 0; round < 2; ++round) {
            double loss = mlp.Fit(x, y);
            double ref_loss = ref.Fit(x, y);
            EXPECT_TRUE(SameBytes(loss, ref_loss))
                << loss << " vs " << ref_loss << " round " << round;
          }

          if (head == Head::kSigmoid) {
            la::Vector batched = mlp.PredictBatch(probe);
            la::Vector expected(probes);
            for (size_t i = 0; i < probes; ++i) {
              la::Vector row(probe.Row(i), probe.Row(i) + dim);
              expected[i] = ref.Predict(row);
              EXPECT_TRUE(SameBytes(mlp.Predict(row), batched[i])) << i;
            }
            EXPECT_TRUE(SameBytes(batched, expected));
          } else {
            std::vector<uint32_t> classes_out = mlp.PredictClasses(probe);
            for (size_t i = 0; i < probes; ++i) {
              la::Vector row(probe.Row(i), probe.Row(i) + dim);
              la::Vector expected = ref.PredictProba(row);
              EXPECT_TRUE(SameBytes(mlp.PredictProba(row), expected)) << i;
              EXPECT_EQ(classes_out[i],
                        static_cast<uint32_t>(
                            std::max_element(expected.begin(),
                                             expected.end()) -
                            expected.begin()))
                  << i;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel variants. The oracle above runs only the variant dispatch picks;
// these run every variant this CPU supports against scalar loops in the
// kernel's operation order.

/// Normal values with exact zeros and negative zeros mixed in.
std::vector<double> KernelValues(size_t n, util::Rng* rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i % 7 == 3 ? 0.0 : i % 11 == 5 ? -0.0 : rng->Normal();
  }
  return v;
}

/// Runs `check` on every variant this CPU supports and prints their names.
template <typename Check>
void ForEachSupportedVariant(const Check& check) {
  std::string ran;
  const kernel::Variant* widest = nullptr;
  for (const kernel::Variant& variant : kernel::Variants()) {
    if (!variant.supported()) continue;
    SCOPED_TRACE(variant.name);
    check(variant);
    ran += std::string(ran.empty() ? "" : " ") + variant.name;
    widest = &variant;
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_EQ(&kernel::Dispatched(), widest);
  std::cout << "[          ] kernel variants run: " << ran
            << " (dispatched: " << kernel::Dispatched().name << ")\n";
}

TEST(MlpKernel, EveryVariantGemmMatchesTheScalarLoopByteForByte) {
  util::Rng rng(41);
  ForEachSupportedVariant([&](const kernel::Variant& variant) {
    for (size_t m : {1u, 3u, 4u, 5u, 23u}) {
      for (size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 17u, 64u}) {
        for (size_t depth : {1u, 2u, 23u, 64u}) {
          for (int epilogue = 0; epilogue < 8; ++epilogue) {
            for (bool transposed : {false, true}) {
              const bool bias = (epilogue & 1) != 0;
              const bool relu = (epilogue & 2) != 0;
              const bool mask = (epilogue & 4) != 0;
              SCOPED_TRACE(testing::Message()
                           << "m=" << m << " n=" << n << " depth=" << depth
                           << " transposed=" << transposed << " bias=" << bias
                           << " relu=" << relu << " mask=" << mask);
              // Padded leading dimensions: the kernel must leave the
              // padding alone.
              const size_t ldy = n + 3;
              const size_t ldc = n + 1;
              std::vector<double> x = KernelValues(m * depth, &rng);
              std::vector<double> y = KernelValues(depth * ldy, &rng);
              std::vector<double> b = KernelValues(n, &rng);
              std::vector<double> a = KernelValues(m * ldc, &rng);
              const kernel::Strided xs =
                  transposed ? kernel::Strided{x.data(), 1, m}
                             : kernel::Strided{x.data(), depth, 1};
              std::vector<double> got(m * ldc, 7.0);
              std::vector<double> want(m * ldc, 7.0);
              variant.gemm(m, n, depth, xs,
                           kernel::Dense{y.data(), ldy, got.data(), ldc,
                                         bias ? b.data() : nullptr, relu,
                                         mask ? a.data() : nullptr});
              // The epilogue as the separate passes it replaces.
              for (size_t r = 0; r < m; ++r) {
                for (size_t k = 0; k < n; ++k) {
                  double acc = 0.0;
                  for (size_t t = 0; t < depth; ++t) {
                    acc += xs(r, t) * y[t * ldy + k];
                  }
                  if (bias) acc += b[k];
                  if (relu) acc = std::max(0.0, acc);
                  if (mask) acc = a[r * ldc + k] > 0.0 ? acc : 0.0;
                  want[r * ldc + k] = acc;
                }
              }
              ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                    got.size() * sizeof(double)),
                        0);
            }
          }
        }
      }
    }
  });
}

TEST(MlpKernel, EveryVariantAdamMatchesTheScalarExpressionsByteForByte) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  util::Rng rng(43);
  ForEachSupportedVariant([&](const kernel::Variant& variant) {
    for (size_t count : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 100u}) {
      SCOPED_TRACE(testing::Message() << "count=" << count);
      std::vector<double> w = KernelValues(count, &rng);
      std::vector<double> m(count, 0.0);
      std::vector<double> v(count, 0.0);
      std::vector<double> ref_w = w, ref_m = m, ref_v = v;
      const double inv_batch = 1.0 / 7.0;
      const double decay = 1e-5;
      // Three early steps, so the moments are non-trivial, then steps
      // from t = 356 on, where bc1 is exactly 1.0 and the kernel skips
      // the division by it.
      for (int step : {1, 2, 3, 356, 357, 1000}) {
        const kernel::AdamScalars adam{
            1e-3, 1.0 - std::pow(kBeta1, step), 1.0 - std::pow(kBeta2, step)};
        ASSERT_EQ(adam.bc1 == 1.0, step >= 356) << "step " << step;
        std::vector<double> grad = KernelValues(count, &rng);
        variant.adam(count, grad.data(), inv_batch, decay, adam, w.data(),
                     m.data(), v.data());
        for (size_t i = 0; i < count; ++i) {
          double g = grad[i] * inv_batch + decay * ref_w[i];
          ref_m[i] = kBeta1 * ref_m[i] + (1 - kBeta1) * g;
          ref_v[i] = kBeta2 * ref_v[i] + (1 - kBeta2) * g * g;
          double mhat = ref_m[i] / adam.bc1;
          double vhat = ref_v[i] / adam.bc2;
          ref_w[i] -= adam.lr * mhat / (std::sqrt(vhat) + kEps);
        }
        ASSERT_TRUE(SameBytes(w, ref_w)) << "step " << step;
        ASSERT_TRUE(SameBytes(m, ref_m)) << "step " << step;
        ASSERT_TRUE(SameBytes(v, ref_v)) << "step " << step;
      }
    }
  });
}

TEST(Mlp, TrippedTokenStopsFitBeforeTheFirstBatch) {
  util::Rng rng(31);
  la::Matrix x = OracleFeatures(40, 4, &rng);
  std::vector<double> y(40, 1.0);
  MlpOptions options;
  options.epochs = 5;
  options.seed = 4;
  Mlp fresh(4, 1, options);
  Mlp stopped(4, 1, options);
  util::CancelToken token;
  token.Cancel();
  EXPECT_EQ(stopped.Fit(x, y, &token), 0.0);
  // No batch ran: the network still has its initial weights.
  la::Vector probe(x.Row(0), x.Row(0) + 4);
  EXPECT_TRUE(SameBytes(stopped.Predict(probe), fresh.Predict(probe)));
  // Every mini-batch poll beats the heartbeat; an untripped token gives the
  // same network as none.
  util::CancelToken live;
  Mlp with_token(4, 1, options);
  double loss = with_token.Fit(x, y, &live);
  EXPECT_TRUE(SameBytes(loss, fresh.Fit(x, y)));
  EXPECT_EQ(live.heartbeat(), 5u);  // 40 rows = one batch of 64, 5 epochs
  EXPECT_TRUE(SameBytes(with_token.Predict(probe), fresh.Predict(probe)));
}

ProjectedGraph TwoCliquesGraph() {
  // Two K4s joined by one bridge edge: 0-3 and 4-7.
  ProjectedGraph g(8);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.AddWeight(u, v, 1);
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) g.AddWeight(u, v, 1);
  }
  g.AddWeight(3, 4, 1);
  return g;
}

TEST(Gcn, TrainingReducesLoss) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.epochs = 1;
  Gcn one(g, options);
  std::vector<std::pair<NodeId, NodeId>> pos, neg;
  for (const auto& e : g.Edges()) pos.push_back({e.u, e.v});
  neg = {{0, 5}, {1, 6}, {2, 7}, {0, 7}, {1, 4}};
  double loss_short = one.Fit(pos, neg);

  options.epochs = 150;
  Gcn many(g, options);
  double loss_long = many.Fit(pos, neg);
  EXPECT_LT(loss_long, loss_short);
}

TEST(Gcn, EmbeddingsHaveRequestedShape) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.output_dim = 5;
  Gcn gcn(g, options);
  EXPECT_EQ(gcn.Embeddings().rows(), 8u);
  EXPECT_EQ(gcn.Embeddings().cols(), 5u);
}

TEST(Gcn, NeighborsInSameCliqueScoreHigherThanCrossPairs) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.epochs = 200;
  options.seed = 21;
  Gcn gcn(g, options);
  std::vector<std::pair<NodeId, NodeId>> pos, neg;
  for (const auto& e : g.Edges()) pos.push_back({e.u, e.v});
  neg = {{0, 5}, {1, 6}, {2, 7}, {0, 6}, {1, 7}, {2, 5}};
  gcn.Fit(pos, neg);
  const la::Matrix& z = gcn.Embeddings();
  auto dot = [&](NodeId a, NodeId b) {
    double s = 0;
    for (size_t j = 0; j < z.cols(); ++j) s += z(a, j) * z(b, j);
    return s;
  };
  // Average within-clique score should exceed average cross-clique score.
  double within = (dot(0, 1) + dot(1, 2) + dot(5, 6) + dot(6, 7)) / 4.0;
  double across = (dot(0, 5) + dot(1, 6) + dot(2, 7)) / 3.0;
  EXPECT_GT(within, across);
}

}  // namespace
}  // namespace marioh::ml
