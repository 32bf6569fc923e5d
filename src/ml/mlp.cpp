#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <numeric>

#include "ml/mlp_kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace marioh::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

void SoftmaxInPlace(double* z, size_t n) {
  double mx = *std::max_element(z, z + n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    z[i] = std::exp(z[i] - mx);
    sum += z[i];
  }
  for (size_t i = 0; i < n; ++i) z[i] /= sum;
}

using kernel::AdamScalars;
using kernel::Dense;
using kernel::Strided;

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;

// ---------------------------------------------------------------------------
// The order-preserving kernel. Every product the network computes is
// C = X * Y where each C[r][k] starts at 0.0 and adds X[r][t] * Y[t][k] for
// t = 0, 1, ... in order: the same operations in the same order as one
// scalar dot product per output, so results do not depend on the tiling,
// on the batch a row is in, or on its position in that batch. Speed comes
// from running independent sums side by side (4-row register tiles on
// W-wide vectors), never from reassociating one sum.
//
// The templates below are the one kernel source. Each variant is a
// `flatten` entry point that inlines them whole, compiled for its own
// instruction set: W = 2 on baseline x86-64 (SSE2), W = 4 under AVX2 and
// W = 8 under AVX-512F. The width must match the instruction set: a
// vector wider than the registers is split into pieces and runs several
// times slower than the narrow one. Everything here has internal linkage,
// so no copy compiled for a wide instruction set can stand in for a
// baseline one at link time. See src/ml/README.md for the flags this file
// must be built with.

// W doubles in one vector (GCC/Clang vector extension). The size must be
// spelled out: a dependent vector_size is dropped.
template <size_t W>
struct VecOf;
template <>
struct VecOf<2> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct VecOf<4> {
  using type = double __attribute__((vector_size(32)));
};
template <>
struct VecOf<8> {
  using type = double __attribute__((vector_size(64)));
};
template <size_t W>
using Vec = typename VecOf<W>::type;

// Load and Store move vectors through pointers and references only: a
// wide vector passed by value out of a baseline-compiled function would
// change the call ABI (-Wpsabi), even though every call is flattened away.
template <size_t W>
void Load(const double* p, Vec<W>* v) {
  std::memcpy(v, p, sizeof *v);
}

template <size_t W>
void Store(double* p, const Vec<W>& v) {
  std::memcpy(p, &v, sizeof v);
}

// Correctly rounded square roots in place, one per instruction set; each
// lane equals the scalar std::sqrt of that lane.
#if defined(__x86_64__)
void Sqrt(Vec<2>* x) { *x = _mm_sqrt_pd(*x); }
[[gnu::target("avx2")]] void Sqrt(Vec<4>* x) { *x = _mm256_sqrt_pd(*x); }
// All eight lanes through the zero-masking form: the same instruction as
// _mm512_sqrt_pd, whose header trips GCC 12's -Wmaybe-uninitialized.
[[gnu::target("avx512f")]] void Sqrt(Vec<8>* x) {
  *x = _mm512_maskz_sqrt_pd(0xff, *x);
}
#else
void Sqrt(Vec<2>* x) {
  *x = Vec<2>{std::sqrt((*x)[0]), std::sqrt((*x)[1])};
}
#endif
void Sqrt(double* x) { *x = std::sqrt(*x); }

/// Adam's per-element update for one value or, lane by lane with the same
/// expressions, a vector of them; `g` is the batch-mean gradient.
/// `kUnitBc1` skips the bias correction of m, for the steps where `bc1`
/// has rounded to exactly 1.0 (t >= 356 for beta1 = 0.9): m / 1.0 == m.
template <bool kUnitBc1, typename T>
void AdamUpdate(const T& g, const AdamScalars& adam, T* w, T* m, T* v) {
  constexpr double kEps = 1e-8;
  *m = kBeta1 * *m + (1 - kBeta1) * g;
  *v = kBeta2 * *v + (1 - kBeta2) * g * g;
  T mhat = *m;
  if constexpr (!kUnitBc1) mhat = *m / adam.bc1;
  T sqrt_vhat = *v / adam.bc2;
  Sqrt(&sqrt_vhat);
  *w -= adam.lr * mhat / (sqrt_vhat + kEps);
}

/// The epilogue `d` names (see kernel::Dense) on the finished sums at
/// C[r][k ..), one value or one vector of them: the same operations, in
/// the same order, as separate passes over C.
template <typename T>
void Finish(const Dense& d, size_t r, size_t k, T* sum) {
  const T zero = {};
  if (d.bias != nullptr) {
    T bias;
    std::memcpy(&bias, d.bias + k, sizeof bias);
    *sum += bias;
  }
  // std::max(0.0, x) is (0.0 < x) ? x : 0.0.
  if (d.relu) *sum = *sum > zero ? *sum : zero;
  if (d.mask != nullptr) {
    T mask;
    std::memcpy(&mask, d.mask + r * d.ldc + k, sizeof mask);
    *sum = mask > zero ? *sum : zero;
  }
}

/// C[r0 .. r0+R) x [k0 .. k0+W*V): R x V vectors of accumulators.
template <size_t W, size_t R, size_t V>
void Block(const Strided& x, const Dense& d, size_t depth, size_t r0,
           size_t k0) {
  Vec<W> acc[R][V] = {};
  for (size_t t = 0; t < depth; ++t) {
    const double* yt = d.y + t * d.ldy + k0;
    Vec<W> yv[V];
    for (size_t v = 0; v < V; ++v) Load<W>(yt + W * v, &yv[v]);
    for (size_t r = 0; r < R; ++r) {
      const double xs = x(r0 + r, t);
      for (size_t v = 0; v < V; ++v) acc[r][v] += xs * yv[v];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) {
      Finish(d, r0 + r, k0 + W * v, &acc[r][v]);
      Store<W>(d.c + (r0 + r) * d.ldc + k0 + W * v, acc[r][v]);
    }
  }
}

/// The single column k of R rows (the columns left after the vectors).
template <size_t R>
void Column(const Strided& x, const Dense& d, size_t depth, size_t r0,
            size_t k) {
  double acc[R] = {};
  for (size_t t = 0; t < depth; ++t) {
    const double yk = d.y[t * d.ldy + k];
    for (size_t r = 0; r < R; ++r) acc[r] += x(r0 + r, t) * yk;
  }
  for (size_t r = 0; r < R; ++r) {
    Finish(d, r0 + r, k, &acc[r]);
    d.c[(r0 + r) * d.ldc + k] = acc[r];
  }
}

/// All n columns of R rows: tiles of V vectors, then single vectors, then
/// single columns.
template <size_t W, size_t R, size_t V>
void Rows(const Strided& x, const Dense& d, size_t n, size_t depth,
          size_t r0) {
  size_t k = 0;
  for (; k + W * V <= n; k += W * V) Block<W, R, V>(x, d, depth, r0, k);
  for (; k + W <= n; k += W) Block<W, R, 1>(x, d, depth, r0, k);
  for (; k < n; ++k) Column<R>(x, d, depth, r0, k);
}

/// C (m x n) = X (m x depth) * Y (depth x n). Rows go four at a time
/// through 4 x 2-vector tiles; the remainder rows, a lone row included,
/// take the k-vectorized axpy form on 1 x 4-vector tiles.
template <size_t W>
void Gemm(size_t m, size_t n, size_t depth, const Strided& x,
          const Dense& d) {
  size_t r = 0;
  for (; r + 4 <= m; r += 4) Rows<W, 4, 2>(x, d, n, depth, r);
  for (; r < m; ++r) Rows<W, 1, 4>(x, d, n, depth, r);
}

/// Adam over `count` weights: W at a time, then one by one.
template <size_t W, bool kUnitBc1>
void AdamRun(size_t count, const double* grad, double inv_batch,
             double decay, const AdamScalars& adam, double* w, double* m,
             double* v) {
  size_t i = 0;
  for (; i + W <= count; i += W) {
    Vec<W> pg, pw, pm, pv;
    Load<W>(grad + i, &pg);
    Load<W>(w + i, &pw);
    Load<W>(m + i, &pm);
    Load<W>(v + i, &pv);
    AdamUpdate<kUnitBc1>(pg * inv_batch + decay * pw, adam, &pw, &pm, &pv);
    Store<W>(w + i, pw);
    Store<W>(m + i, pm);
    Store<W>(v + i, pv);
  }
  for (; i < count; ++i) {
    AdamUpdate<kUnitBc1>(grad[i] * inv_batch + decay * w[i], adam, &w[i],
                         &m[i], &v[i]);
  }
}

template <size_t W>
void Adam(size_t count, const double* grad, double inv_batch, double decay,
          const AdamScalars& adam, double* w, double* m, double* v) {
  if (adam.bc1 == 1.0) {
    AdamRun<W, true>(count, grad, inv_batch, decay, adam, w, m, v);
  } else {
    AdamRun<W, false>(count, grad, inv_batch, decay, adam, w, m, v);
  }
}

// The entry points, one pair per variant, each with the templates
// flattened into it under its instruction set.
[[gnu::flatten]]
void Gemm2(size_t m, size_t n, size_t depth, const Strided& x,
           const Dense& d) {
  Gemm<2>(m, n, depth, x, d);
}
[[gnu::flatten]]
void Adam2(size_t count, const double* grad, double inv_batch, double decay,
           const AdamScalars& adam, double* w, double* m, double* v) {
  Adam<2>(count, grad, inv_batch, decay, adam, w, m, v);
}

#if defined(__x86_64__)
[[gnu::flatten, gnu::target("avx2")]]
void Gemm4(size_t m, size_t n, size_t depth, const Strided& x,
           const Dense& d) {
  Gemm<4>(m, n, depth, x, d);
}
[[gnu::flatten, gnu::target("avx2")]]
void Adam4(size_t count, const double* grad, double inv_batch, double decay,
           const AdamScalars& adam, double* w, double* m, double* v) {
  Adam<4>(count, grad, inv_batch, decay, adam, w, m, v);
}

[[gnu::flatten, gnu::target("avx512f")]]
void Gemm8(size_t m, size_t n, size_t depth, const Strided& x,
           const Dense& d) {
  Gemm<8>(m, n, depth, x, d);
}
[[gnu::flatten, gnu::target("avx512f")]]
void Adam8(size_t count, const double* grad, double inv_batch, double decay,
           const AdamScalars& adam, double* w, double* m, double* v) {
  Adam<8>(count, grad, inv_batch, decay, adam, w, m, v);
}
#endif

bool AlwaysSupported() { return true; }

#if defined(__x86_64__)
// __builtin_cpu_init makes the checks safe even from a static
// initializer, before libgcc's own constructor has run.
bool HasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
bool HasAvx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

constexpr kernel::Variant kVariants[] = {
    {"sse2", AlwaysSupported, Gemm2, Adam2},
    {"avx2", HasAvx2, Gemm4, Adam4},
    {"avx512f", HasAvx512f, Gemm8, Adam8},
};
#else
constexpr kernel::Variant kVariants[] = {
    {"generic", AlwaysSupported, Gemm2, Adam2},
};
#endif

}  // namespace

namespace kernel {

std::span<const Variant> Variants() { return kVariants; }

const Variant& Dispatched() {
  static const Variant* const chosen = [] {
    const Variant* widest = &kVariants[0];
    for (const Variant& variant : kVariants) {
      if (variant.supported()) widest = &variant;
    }
    return widest;
  }();
  return *chosen;
}

}  // namespace kernel

Mlp::Mlp(size_t input_dim, size_t output_dim, const MlpOptions& options)
    : options_(options) {
  MARIOH_CHECK_GT(input_dim, 0u);
  MARIOH_CHECK_GT(output_dim, 0u);
  if (options_.head == Head::kSigmoid) MARIOH_CHECK_EQ(output_dim, 1u);
  dims_.push_back(input_dim);
  for (size_t h : options_.hidden) dims_.push_back(h);
  dims_.push_back(output_dim);

  util::Rng rng(options_.seed);
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    Layer layer;
    layer.in = dims_[l];
    layer.out = dims_[l + 1];
    // He initialization for ReLU layers, drawn unit by unit.
    double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    layer.w.assign(layer.in * layer.out, 0.0);
    for (size_t i = 0; i < layer.out; ++i) {
      for (size_t j = 0; j < layer.in; ++j) {
        layer.w[j * layer.out + i] = rng.Normal(0.0, scale);
      }
    }
    layer.b.assign(layer.out, 0.0);
    layer.m_w.assign(layer.w.size(), 0.0);
    layer.v_w.assign(layer.w.size(), 0.0);
    layer.m_b.assign(layer.out, 0.0);
    layer.v_b.assign(layer.out, 0.0);
    layers_.push_back(std::move(layer));
  }
}

void Mlp::Forward(const double* x, size_t rows,
                  std::vector<la::Vector>* outs) const {
  const auto gemm = kernel::Dispatched().gemm;
  const double* in = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    double* out = (*outs)[l].data();
    // Bias, then ReLU on hidden layers, as the product's epilogue.
    gemm(rows, layer.out, layer.in, Strided{in, layer.in, 1},
         Dense{layer.w.data(), layer.out, out, layer.out, layer.b.data(),
               l + 1 < layers_.size()});
    in = out;
  }
}

la::Vector Mlp::Logits(const double* x, size_t rows) const {
  // Inference runs in blocks of this many rows, so its scratch stays in
  // cache whatever the caller's batch size.
  constexpr size_t kBlock = 64;
  const size_t block = std::min(rows, kBlock);
  std::vector<la::Vector> outs;
  for (const Layer& layer : layers_) outs.emplace_back(block * layer.out);
  la::Vector logits(rows * output_dim());
  for (size_t r = 0; r < rows; r += block) {
    size_t n = std::min(block, rows - r);
    Forward(x + r * input_dim(), n, &outs);
    std::copy_n(outs.back().begin(), n * output_dim(),
                logits.begin() + static_cast<ptrdiff_t>(r * output_dim()));
  }
  return logits;
}

void Mlp::AdamStep(Layer* layer, const double* grad_w, const double* grad_b,
                   double inv_batch) {
  const AdamScalars adam{
      options_.learning_rate,
      1.0 - std::pow(kBeta1, static_cast<double>(adam_t_)),
      1.0 - std::pow(kBeta2, static_cast<double>(adam_t_))};
  kernel::Dispatched().adam(layer->w.size(), grad_w, inv_batch,
                            options_.weight_decay, adam, layer->w.data(),
                            layer->m_w.data(), layer->v_w.data());
  // The few biases keep the bc1 division; it is exact either way.
  for (size_t j = 0; j < layer->b.size(); ++j) {
    AdamUpdate<false>(grad_b[j] * inv_batch, adam, &layer->b[j],
                      &layer->m_b[j], &layer->v_b[j]);
  }
}

double Mlp::Fit(const la::Matrix& x, const std::vector<double>& y,
                const util::CancelToken* cancel) {
  const size_t n = x.rows();
  MARIOH_CHECK_EQ(n, y.size());
  MARIOH_CHECK_GT(n, 0u);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  MARIOH_CHECK_GT(options_.batch_size, 0u);
  util::Rng rng(options_.seed ^ 0x5bd1e995u);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Workspace, allocated once: the gathered input batch, each layer's
  // output and delta (batch x width), the out x in weight copies the
  // backward pass multiplies by (layers after the first), and the
  // gradients.
  const size_t num_layers = layers_.size();
  const size_t cap = std::min(n, options_.batch_size);
  la::Vector input(cap * input_dim());
  std::vector<la::Vector> acts, deltas, weights_t, grad_w, grad_b;
  for (const Layer& layer : layers_) {
    acts.emplace_back(cap * layer.out);
    deltas.emplace_back(cap * layer.out);
    weights_t.emplace_back(&layer == &layers_.front() ? 0 : layer.w.size());
    grad_w.emplace_back(layer.w.size());
    grad_b.emplace_back(layer.out);
  }

  const auto gemm = kernel::Dispatched().gemm;
  // The left operand of a bias gradient: a row of ones, all one value.
  static constexpr double kOne = 1.0;
  util::CancelChecker checker(cancel);
  double loss = 0.0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    // Only the last epoch's loss is returned, so only it is summed.
    const bool sum_loss = epoch + 1 == options_.epochs;
    double epoch_loss = 0.0;
    size_t processed = 0;
    for (size_t start = 0; start < n; start += options_.batch_size) {
      if (checker.ShouldStop()) return 0.0;
      const size_t bs = std::min(n, start + options_.batch_size) - start;
      for (size_t s = 0; s < bs; ++s) {
        std::copy_n(x.Row(order[start + s]), input_dim(),
                    input.begin() + static_cast<ptrdiff_t>(s * input_dim()));
      }
      Forward(input.data(), bs, &acts);

      // Loss and delta = dLoss/dlogits for the cross-entropy heads, in
      // sample order.
      const size_t classes = output_dim();
      for (size_t s = 0; s < bs; ++s) {
        const double target = y[order[start + s]];
        const double* logits = acts.back().data() + s * classes;
        double* delta = deltas.back().data() + s * classes;
        if (options_.head == Head::kSigmoid) {
          double p = Sigmoid(logits[0]);
          delta[0] = p - target;
          if (sum_loss) {
            epoch_loss += -(target * std::log(std::max(p, 1e-12)) +
                            (1 - target) * std::log(std::max(1 - p, 1e-12)));
          }
        } else {
          std::copy_n(logits, classes, delta);
          SoftmaxInPlace(delta, classes);
          size_t label = static_cast<size_t>(target);
          MARIOH_CHECK_LT(label, classes);
          if (sum_loss) epoch_loss += -std::log(std::max(delta[label], 1e-12));
          delta[label] -= 1.0;
        }
      }

      // Backpropagate. Weight and bias gradients sum over the batch in
      // sample order (the kernel's t order).
      for (size_t l = num_layers; l-- > 0;) {
        const Layer& layer = layers_[l];
        const double* a_in = l == 0 ? input.data() : acts[l - 1].data();
        const double* delta = deltas[l].data();
        if (layer.out == 1) {
          // grad_w as the 1 x in row delta^T * a_in, which is the same
          // memory as the in x 1 column: each product delta * a equals
          // a * delta, and a row runs on vectors where a column does not.
          gemm(1, layer.in, bs, Strided{delta, 0, 1},
               Dense{a_in, layer.in, grad_w[l].data(), layer.in});
        } else {
          gemm(layer.in, layer.out, bs, Strided{a_in, 1, layer.in},
               Dense{delta, layer.out, grad_w[l].data(), layer.out});
        }
        // grad_b = ones^T * delta: 0.0 plus 1.0 * delta[s][i] in s order
        // is the plain column sum, bit for bit.
        gemm(1, layer.out, bs, Strided{&kOne, 0, 0},
             Dense{delta, layer.out, grad_b[l].data(), layer.out});
        if (l == 0) break;
        // prev = delta * W, masked by the ReLU derivative at the input.
        double* wt = weights_t[l].data();
        for (size_t j = 0; j < layer.in; ++j) {
          for (size_t i = 0; i < layer.out; ++i) {
            wt[i * layer.in + j] = layer.w[j * layer.out + i];
          }
        }
        double* prev = deltas[l - 1].data();
        gemm(bs, layer.in, layer.out, Strided{delta, layer.out, 1},
             Dense{wt, layer.in, prev, layer.in, nullptr, false, a_in});
      }

      ++adam_t_;
      const double inv = 1.0 / static_cast<double>(bs);
      for (size_t l = 0; l < num_layers; ++l) {
        AdamStep(&layers_[l], grad_w[l].data(), grad_b[l].data(), inv);
      }
      processed += bs;
    }
    if (sum_loss) loss = epoch_loss / static_cast<double>(processed);
  }
  return loss;
}

double Mlp::Predict(const la::Vector& x) const {
  MARIOH_CHECK(options_.head == Head::kSigmoid);
  MARIOH_CHECK_EQ(x.size(), input_dim());
  return Sigmoid(Logits(x.data(), 1)[0]);
}

la::Vector Mlp::PredictBatch(const la::Matrix& x) const {
  MARIOH_CHECK(options_.head == Head::kSigmoid);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  la::Vector out = Logits(x.data(), x.rows());
  for (double& v : out) v = Sigmoid(v);
  return out;
}

la::Vector Mlp::PredictProba(const la::Vector& x) const {
  MARIOH_CHECK(options_.head == Head::kSoftmax);
  MARIOH_CHECK_EQ(x.size(), input_dim());
  la::Vector probs = Logits(x.data(), 1);
  SoftmaxInPlace(probs.data(), probs.size());
  return probs;
}

std::vector<uint32_t> Mlp::PredictClasses(const la::Matrix& x) const {
  MARIOH_CHECK(options_.head == Head::kSoftmax);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  const size_t classes = output_dim();
  la::Vector probs = Logits(x.data(), x.rows());
  std::vector<uint32_t> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    double* row = probs.data() + i * classes;
    SoftmaxInPlace(row, classes);
    out[i] = static_cast<uint32_t>(std::max_element(row, row + classes) -
                                   row);
  }
  return out;
}

}  // namespace marioh::ml
