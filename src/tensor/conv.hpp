// 2-D convolution and pooling primitives (NCHW layout). Convolution runs
// one image at a time: unfold the image into a per-thread scratch buffer of
// columns (im2col), then one KernelTable row-kernel call per image. Forward
// and dX parallelise over images only; dW and db accumulate images in
// ascending order, so results are bit-identical to one whole-batch GEMM and
// independent of the thread count (DESIGN.md "Kernel layer"). nn::Conv2d and
// nn::MaxPool2d are thin wrappers over these.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace fifl::tensor {

struct ConvSpec {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_dim(std::size_t in_dim) const {
    return (in_dim + 2 * padding - kernel) / stride + 1;
  }
};

/// output(N,OC,OH,OW) = conv(input(N,C,H,W), weight(OC,C,K,K)) + bias(OC).
/// Throws std::invalid_argument on any operand shape mismatch.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec);

struct Conv2dGrads {
  Tensor grad_input;   // (N,C,H,W)
  Tensor grad_weight;  // (OC,C,K,K)
  Tensor grad_bias;    // (OC)
};

/// Throws std::invalid_argument unless grad_output is (N,OC,OH,OW).
Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const ConvSpec& spec);

/// Max pooling with square window `window` and equal stride.
/// `argmax_out` stores the flat input index chosen per output element
/// (needed by the backward pass).
Tensor maxpool2d_forward(const Tensor& input, std::size_t window,
                         std::vector<std::size_t>& argmax_out);
Tensor maxpool2d_backward(const Tensor& grad_output,
                          const std::vector<std::size_t>& argmax,
                          const Shape& input_shape);

/// Global average pooling: (N,C,H,W) -> (N,C).
Tensor global_avgpool_forward(const Tensor& input);
Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape);

}  // namespace fifl::tensor
