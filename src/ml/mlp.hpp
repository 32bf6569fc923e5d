/// \file mlp.hpp
/// \brief From-scratch multilayer perceptron with ReLU hidden layers,
/// sigmoid or softmax heads, Adam optimization, and minibatch training.
/// This is the "simple MLP" the paper uses as its multiplicity-aware
/// classifier M (Sect. III-D), and is reused for node classification.

#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "util/cancel.hpp"

namespace marioh::ml {

/// Output head of the network.
enum class Head {
  kSigmoid,  ///< binary classification; Predict returns P(y=1).
  kSoftmax,  ///< multiclass; PredictClasses returns argmax.
};

/// Training hyperparameters.
struct MlpOptions {
  std::vector<size_t> hidden = {64, 32};  ///< hidden layer widths
  Head head = Head::kSigmoid;
  double learning_rate = 1e-3;  ///< Adam step size
  double weight_decay = 1e-5;   ///< L2 penalty
  int epochs = 60;
  size_t batch_size = 64;
  uint64_t seed = 1;
};

/// Fully connected network trained with Adam on cross-entropy loss.
class Mlp {
 public:
  /// Builds a network mapping `input_dim` features to `output_dim` logits.
  /// For Head::kSigmoid, `output_dim` must be 1.
  Mlp(size_t input_dim, size_t output_dim, const MlpOptions& options);

  /// Trains on rows of `x` with labels `y`. For the sigmoid head, `y` holds
  /// 0/1 values; for softmax, class indices. Returns the final epoch's mean
  /// training loss.
  ///
  /// `cancel` (null = non-cancellable) is polled through a
  /// util::CancelChecker once per mini-batch, which also beats its
  /// heartbeat. An untripped token changes no output bit. Once it trips,
  /// Fit returns 0.0 at the next mini-batch boundary with the network
  /// partly trained; the caller must discard it. (Only the last epoch's
  /// loss is summed, so a stopped fit has no loss to report.)
  double Fit(const la::Matrix& x, const std::vector<double>& y,
             const util::CancelToken* cancel = nullptr);

  /// Sigmoid head: P(y=1 | x) for one example.
  double Predict(const la::Vector& x) const;

  /// Sigmoid head: probabilities for every row of `x`. Row i equals
  /// `Predict` of that row, bit for bit.
  la::Vector PredictBatch(const la::Matrix& x) const;

  /// Softmax head: class probabilities for one example.
  la::Vector PredictProba(const la::Vector& x) const;

  /// Softmax head: argmax class per row.
  std::vector<uint32_t> PredictClasses(const la::Matrix& x) const;

  size_t input_dim() const { return dims_.front(); }
  size_t output_dim() const { return dims_.back(); }

 private:
  /// One fully connected layer with its Adam moments. Weights are stored
  /// input-major: `w[j * out + i]` connects input j to unit i, so the
  /// forward pass multiplies a batch of activations by `w` directly.
  struct Layer {
    size_t in = 0;
    size_t out = 0;
    la::Vector w, b;
    la::Vector m_w, v_w, m_b, v_b;
  };

  /// Batched forward pass over `rows` consecutive rows of `x`:
  /// `(*outs)[l]` (at least rows x dims_[l+1]) receives layer l's output,
  /// after ReLU for hidden layers and as raw logits for the last one.
  void Forward(const double* x, size_t rows,
               std::vector<la::Vector>* outs) const;
  /// Raw logits (rows x output_dim, row-major) for `rows` rows of `x`.
  la::Vector Logits(const double* x, size_t rows) const;
  /// One Adam update from batch-summed gradients scaled by `inv_batch`.
  void AdamStep(Layer* layer, const double* grad_w, const double* grad_b,
                double inv_batch);

  MlpOptions options_;
  std::vector<size_t> dims_;  // layer widths incl. input & output
  std::vector<Layer> layers_;
  int64_t adam_t_ = 0;
};

}  // namespace marioh::ml
