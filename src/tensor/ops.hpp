// Elementwise / BLAS-lite operations on Tensor.
//
// The matmuls are parallelised over output rows with util::parallel_for;
// small vector ops stay serial because dispatch overhead would dwarf the
// work. Convolution (conv.hpp) calls the kernel rows directly, one image
// at a time, rather than these whole-matrix wrappers.
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace fifl::tensor {

// ---- elementwise (shapes must match; throws std::invalid_argument) ----
void add_inplace(Tensor& dst, const Tensor& src);            // dst += src
void sub_inplace(Tensor& dst, const Tensor& src);            // dst -= src
void mul_inplace(Tensor& dst, const Tensor& src);            // dst *= src (Hadamard)
void scale_inplace(Tensor& dst, float alpha);                // dst *= alpha
void axpy_inplace(Tensor& dst, float alpha, const Tensor& x);  // dst += alpha*x

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);

// ---- reductions ----
double sum(const Tensor& t) noexcept;
double dot(std::span<const float> a, std::span<const float> b);
double dot(const Tensor& a, const Tensor& b);
double squared_norm(const Tensor& t) noexcept;
double norm(const Tensor& t) noexcept;
/// Squared Euclidean distance ‖a-b‖² — the paper's Dis() (Eq. 13).
double squared_distance(std::span<const float> a, std::span<const float> b);
/// Cosine similarity in [-1, 1]; 0 when either vector is zero.
double cosine_similarity(std::span<const float> a, std::span<const float> b);
/// Index of the maximum element (first on ties).
std::size_t argmax(std::span<const float> xs);

// ---- matrix ops (rank-2 tensors) ----
/// c = a(mxk) * b(kxn); parallel over rows of a.
Tensor matmul(const Tensor& a, const Tensor& b);
/// c = a(mxk) * b(nxk)^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// c = a(kxm)^T * b(kxn).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);

/// True iff any entry is NaN or infinite — used to detect the paper's
/// "loss becomes NaN" model crash under strong sign-flipping attacks.
bool has_nonfinite(const Tensor& t) noexcept;
bool has_nonfinite(std::span<const float> xs) noexcept;

}  // namespace fifl::tensor
