/// \file mlp_kernel.hpp
/// \brief Internal to src/ml: the MLP's order-preserving kernel, listed
/// once per vector width it is compiled for. `Mlp` runs `Dispatched()`;
/// tests and benches reach every variant through `Variants()`. Not part
/// of the public API.

#pragma once

#include <cstddef>
#include <span>

namespace marioh::ml::kernel {

/// Left operand of a product: element (r, t) is
/// `data[r * row_stride + t * col_stride]`, so a transposed matrix needs
/// no copy.
struct Strided {
  const double* data;
  size_t row_stride;
  size_t col_stride;
  double operator()(size_t r, size_t t) const {
    return data[r * row_stride + t * col_stride];
  }
};

/// Right operand and result: plain row-major with a leading dimension,
/// and what happens to each finished sum C[r][k] before it is stored, in
/// this order: `bias` (null = none) adds bias[k]; `relu` replaces it with
/// std::max(0.0, C[r][k]); `mask` (null = none) keeps it only where
/// mask[r * ldc + k] > 0.0 and stores 0.0 elsewhere. These are the same
/// operations a separate pass over C would make, so folding them into the
/// product changes no bit.
struct Dense {
  const double* y;
  size_t ldy;
  double* c;
  size_t ldc;
  const double* bias = nullptr;
  bool relu = false;
  const double* mask = nullptr;
};

/// Step size and bias corrections of one Adam step.
struct AdamScalars {
  double lr;
  double bc1;
  double bc2;
};

/// One compiled instantiation of the kernel. Every variant computes the
/// same bits; they differ only in how many independent outputs run side
/// by side.
struct Variant {
  const char* name;     ///< the instruction set it is compiled for
  bool (*supported)();  ///< whether this CPU can run it
  /// C (m x n) = X (m x depth) * Y (depth x n): each C[r][k] starts at 0.0
  /// and adds X[r][t] * Y[t][k] for t = 0, 1, ... in order, then takes the
  /// epilogue `Dense` names.
  void (*gemm)(size_t m, size_t n, size_t depth, const Strided& x,
               const Dense& d);
  /// Adam's update of `count` weights in place, element by element, with
  /// the gradient `grad[i] * inv_batch + decay * w[i]`. Once `bc1` is
  /// exactly 1.0 the division by it is skipped (x / 1.0 == x).
  void (*adam)(size_t count, const double* grad, double inv_batch,
               double decay, const AdamScalars& adam, double* w, double* m,
               double* v);
};

/// Every compiled variant, narrowest first.
std::span<const Variant> Variants();

/// The widest variant this CPU supports, chosen once on first use.
const Variant& Dispatched();

}  // namespace marioh::ml::kernel
