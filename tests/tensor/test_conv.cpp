#include "tensor/conv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fifl::tensor {
namespace {

// Naive direct convolution reference.
Tensor conv_reference(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec) {
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  Tensor out({n, spec.out_channels, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = static_cast<double>(bias[oc]);
          for (std::size_t ic = 0; ic < c; ++ic) {
            for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
              for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                const auto iy = static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                                static_cast<std::ptrdiff_t>(spec.padding);
                const auto ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                                static_cast<std::ptrdiff_t>(spec.padding);
                if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                    ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += static_cast<double>(
                           input(img, ic, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix))) *
                       static_cast<double>(weight(oc, ic, ky, kx));
              }
            }
          }
          out(img, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

// ---- The whole-batch oracle ------------------------------------------------
// conv2d_forward/backward work one image at a time. This is the
// whole-batch formulation they replaced: unfold every image into one
// (N*OH*OW, C*K*K) column matrix and run a single GEMM over it. The
// per-image code promises the same per-element operation order, so the two
// must agree bit for bit.

/// Unfold input (N,C,H,W) into columns (N*OH*OW, C*K*K).
Tensor im2col(const Tensor& input, const ConvSpec& spec) {
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  Tensor cols({n * oh * ow, c * spec.kernel * spec.kernel});
  float* out = cols.data();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const auto iy = static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                              static_cast<std::ptrdiff_t>(spec.padding);
              const auto ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                              static_cast<std::ptrdiff_t>(spec.padding);
              const bool inside = iy >= 0 && ix >= 0 &&
                                  iy < static_cast<std::ptrdiff_t>(h) &&
                                  ix < static_cast<std::ptrdiff_t>(w);
              *out++ = inside ? input(img, ch, static_cast<std::size_t>(iy),
                                      static_cast<std::size_t>(ix))
                              : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

/// Fold columns (N*OH*OW, C*K*K) back into (N,C,H,W), accumulating overlaps.
Tensor col2im(const Tensor& cols, const ConvSpec& spec, std::size_t n,
              std::size_t h, std::size_t w) {
  const std::size_t c = spec.in_channels;
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  Tensor out({n, c, h, w});
  const float* src = cols.data();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++src) {
              const auto iy = static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                              static_cast<std::ptrdiff_t>(spec.padding);
              const auto ix = static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                              static_cast<std::ptrdiff_t>(spec.padding);
              if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                  ix >= static_cast<std::ptrdiff_t>(w)) {
                continue;
              }
              out(img, ch, static_cast<std::size_t>(iy),
                  static_cast<std::size_t>(ix)) += *src;
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor oracle_forward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                      const ConvSpec& spec) {
  const std::size_t n = x.dim(0), oc = spec.out_channels;
  const std::size_t oh = spec.out_dim(x.dim(2)), ow = spec.out_dim(x.dim(3));
  Tensor wmat = weight.clone().reshape({oc, weight.numel() / oc});
  Tensor prod = matmul_nt(im2col(x, spec), wmat);  // (N*OH*OW, OC)
  Tensor out({n, oc, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < oc; ++ch) {
      for (std::size_t p = 0; p < oh * ow; ++p) {
        out[(img * oc + ch) * oh * ow + p] = prod((img * oh * ow + p), ch) + bias[ch];
      }
    }
  }
  return out;
}

Conv2dGrads oracle_backward(const Tensor& x, const Tensor& weight,
                            const Tensor& grad_output, const ConvSpec& spec) {
  const std::size_t n = x.dim(0), oc = spec.out_channels;
  const std::size_t pixels = grad_output.dim(2) * grad_output.dim(3);
  Tensor gmat({n * pixels, oc});  // grad_output (N,OC,OH,OW) -> (N*OH*OW, OC)
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < oc; ++ch) {
      for (std::size_t p = 0; p < pixels; ++p) {
        gmat(img * pixels + p, ch) = grad_output[(img * oc + ch) * pixels + p];
      }
    }
  }
  Conv2dGrads grads;
  grads.grad_weight = matmul_tn(gmat, im2col(x, spec)).reshape(weight.shape());
  grads.grad_bias = Tensor({oc});
  for (std::size_t row = 0; row < n * pixels; ++row) {
    for (std::size_t ch = 0; ch < oc; ++ch) grads.grad_bias[ch] += gmat(row, ch);
  }
  Tensor wmat = weight.clone().reshape({oc, weight.numel() / oc});
  grads.grad_input = col2im(matmul(gmat, wmat), spec, n, x.dim(2), x.dim(3));
  return grads;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct OracleCase {
  const char* name;
  ConvSpec spec;
  std::size_t batch, height, width;
  double zero_share;  // fraction of grad_output entries forced to 0
};

// LeNet's two convolutions at batch 32, a strided unpadded shape, and
// gradients as sparse as ReLU/max-pool backward leaves them.
constexpr ConvSpec kLeNetConv1{
    .in_channels = 1, .out_channels = 6, .kernel = 5, .stride = 1, .padding = 2};
constexpr ConvSpec kLeNetConv2{
    .in_channels = 6, .out_channels = 16, .kernel = 5, .stride = 1, .padding = 2};
constexpr ConvSpec kStride2{
    .in_channels = 3, .out_channels = 4, .kernel = 3, .stride = 2, .padding = 0};
const OracleCase kOracleCases[] = {
    {"lenet_conv1", kLeNetConv1, 32, 28, 28, 0.0},
    {"lenet_conv2", kLeNetConv2, 32, 14, 14, 0.0},
    {"stride2_nopad", kStride2, 5, 11, 9, 0.0},
    {"lenet_conv1_sparse", kLeNetConv1, 32, 28, 28, 0.8},
    {"lenet_conv2_sparse", kLeNetConv2, 32, 14, 14, 0.75},
};

struct ConvResult {
  Tensor out;
  Conv2dGrads grads;
};

TEST(ConvOracle, PerImageMatchesWholeBatchBitForBit) {
  std::uint64_t seed = 40;
  for (const OracleCase& c : kOracleCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng(++seed);
    const ConvSpec& s = c.spec;
    Tensor x = Tensor::gaussian({c.batch, s.in_channels, c.height, c.width}, rng);
    Tensor w = Tensor::gaussian({s.out_channels, s.in_channels, s.kernel, s.kernel}, rng,
                                0.0f, 0.2f);
    Tensor b = Tensor::gaussian({s.out_channels}, rng);
    Tensor g = Tensor::gaussian(
        {c.batch, s.out_channels, s.out_dim(c.height), s.out_dim(c.width)}, rng);
    std::size_t zeros = 0;
    for (float& v : g.flat()) {
      if (rng.uniform() < c.zero_share) v = 0.0f;
      zeros += v == 0.0f ? 1 : 0;
    }
    EXPECT_GE(static_cast<double>(zeros),
              c.zero_share * 0.95 * static_cast<double>(g.numel()));

    const Tensor want_out = oracle_forward(x, w, b, s);
    const Conv2dGrads want = oracle_backward(x, w, g, s);
    auto run = [&] {
      return ConvResult{conv2d_forward(x, w, b, s), conv2d_backward(x, w, g, s)};
    };
    // Main thread: images spread over the pool. Pool task: nested
    // parallel_for runs serially. Thread count must not change a bit.
    const ConvResult on_main = run();
    const ConvResult in_pool = util::ThreadPool::global().submit(run).get();
    for (const ConvResult* got : {&on_main, &in_pool}) {
      EXPECT_TRUE(same_bits(got->out, want_out));
      EXPECT_TRUE(same_bits(got->grads.grad_weight, want.grad_weight));
      EXPECT_TRUE(same_bits(got->grads.grad_bias, want.grad_bias));
      EXPECT_TRUE(same_bits(got->grads.grad_input, want.grad_input));
    }
  }
}

TEST(Conv, OutDimFormula) {
  ConvSpec s{.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 1, .padding = 1};
  EXPECT_EQ(s.out_dim(28), 28u);
  s.padding = 0;
  EXPECT_EQ(s.out_dim(28), 26u);
  s.stride = 2;
  EXPECT_EQ(s.out_dim(28), 13u);
}

TEST(Conv, Im2colIdentityKernel1x1) {
  util::Rng rng(1);
  Tensor x = Tensor::gaussian({2, 3, 4, 4}, rng);
  ConvSpec s{.in_channels = 3, .out_channels = 1, .kernel = 1, .stride = 1, .padding = 0};
  Tensor cols = im2col(x, s);
  EXPECT_EQ(cols.dim(0), 2u * 4 * 4);
  EXPECT_EQ(cols.dim(1), 3u);
  // Row (img=0, y=1, x=2) holds x[0, :, 1, 2].
  for (std::size_t ch = 0; ch < 3; ++ch) {
    EXPECT_FLOAT_EQ(cols(1 * 4 + 2, ch), x(0, ch, 1, 2));
  }
}

TEST(Conv, ForwardMatchesReferenceNoPadding) {
  util::Rng rng(2);
  ConvSpec s{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .padding = 0};
  Tensor x = Tensor::gaussian({2, 2, 6, 6}, rng);
  Tensor w = Tensor::gaussian({3, 2, 3, 3}, rng);
  Tensor b = Tensor::gaussian({3}, rng);
  EXPECT_TRUE(conv2d_forward(x, w, b, s).allclose(conv_reference(x, w, b, s), 1e-4f));
}

TEST(Conv, ForwardMatchesReferenceWithPaddingAndStride) {
  util::Rng rng(3);
  ConvSpec s{.in_channels = 1, .out_channels = 2, .kernel = 5, .stride = 2, .padding = 2};
  Tensor x = Tensor::gaussian({1, 1, 9, 9}, rng);
  Tensor w = Tensor::gaussian({2, 1, 5, 5}, rng);
  Tensor b = Tensor::gaussian({2}, rng);
  EXPECT_TRUE(conv2d_forward(x, w, b, s).allclose(conv_reference(x, w, b, s), 1e-4f));
}

TEST(Conv, Col2imInvertsIm2colForDisjointPatches) {
  // stride == kernel, no padding: patches are disjoint, so col2im(im2col(x))
  // reproduces x exactly.
  util::Rng rng(4);
  ConvSpec s{.in_channels = 2, .out_channels = 1, .kernel = 2, .stride = 2, .padding = 0};
  Tensor x = Tensor::gaussian({2, 2, 4, 4}, rng);
  Tensor cols = im2col(x, s);
  Tensor back = col2im(cols, s, 2, 4, 4);
  EXPECT_TRUE(back.allclose(x, 1e-5f));
}

// Central-difference gradient check of the full conv backward pass.
TEST(Conv, BackwardNumericalGradcheck) {
  util::Rng rng(5);
  ConvSpec s{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .padding = 1};
  Tensor x = Tensor::gaussian({1, 2, 5, 5}, rng, 0.0f, 0.5f);
  Tensor w = Tensor::gaussian({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  Tensor b = Tensor::gaussian({2}, rng, 0.0f, 0.5f);

  // Scalar objective: L = sum(conv(x)) weighted by fixed coefficients.
  Tensor coeff = Tensor::gaussian({1, 2, 5, 5}, rng);
  auto objective = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y = conv2d_forward(xx, ww, bb, s);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(coeff[i]);
    }
    return acc;
  };

  const auto grads = conv2d_backward(x, w, coeff, s);
  const float eps = 1e-2f;

  for (std::size_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x.clone(), xm = x.clone();
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric =
        (objective(xp, w, b) - objective(xm, w, b)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_input[i], numeric, 5e-2)
        << "grad_input mismatch at " << i;
  }
  for (std::size_t i = 0; i < w.numel(); i += 5) {
    Tensor wp = w.clone(), wm = w.clone();
    wp[i] += eps;
    wm[i] -= eps;
    const double numeric =
        (objective(x, wp, b) - objective(x, wm, b)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_weight[i], numeric, 5e-2)
        << "grad_weight mismatch at " << i;
  }
  for (std::size_t i = 0; i < b.numel(); ++i) {
    Tensor bp = b.clone(), bm = b.clone();
    bp[i] += eps;
    bm[i] -= eps;
    const double numeric =
        (objective(x, w, bp) - objective(x, w, bm)) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(grads.grad_bias[i], numeric, 5e-2)
        << "grad_bias mismatch at " << i;
  }
}

TEST(Conv, ForwardRejectsMismatchedOperands) {
  ConvSpec s{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 1, .padding = 1};
  const Tensor x({1, 2, 4, 4}), w({3, 2, 3, 3}), b({3});
  EXPECT_NO_THROW((void)conv2d_forward(x, w, b, s));
  EXPECT_THROW((void)conv2d_forward(Tensor({1, 3, 4, 4}), w, b, s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_forward(x, Tensor({3, 2, 3, 2}), b, s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_forward(x, Tensor({2, 2, 3, 3}), b, s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_forward(x, Tensor({3, 18}), b, s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_forward(x, w, Tensor({2}), s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_forward(x, w, Tensor({3, 1}), s), std::invalid_argument);
}

TEST(Conv, BackwardRejectsMismatchedGradOrWeight) {
  ConvSpec s{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .padding = 1};
  const Tensor x({1, 2, 4, 4}), w({2, 2, 3, 3});
  EXPECT_NO_THROW((void)conv2d_backward(x, w, Tensor({1, 2, 4, 4}), s));
  // A gradient too small for the (1,2,4,4) output would be read out of bounds.
  EXPECT_THROW((void)conv2d_backward(x, w, Tensor({1, 1, 2, 2}), s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_backward(x, w, Tensor({2, 2, 4, 4}), s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_backward(x, w, Tensor({1, 2, 16}), s), std::invalid_argument);
  EXPECT_THROW((void)conv2d_backward(x, Tensor({2, 1, 3, 3}), Tensor({1, 2, 4, 4}), s),
               std::invalid_argument);
}

TEST(Pool, MaxPoolPicksWindowMaxima) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  EXPECT_EQ(y.dim(2), 2u);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 0), 13.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 15.0f);
}

TEST(Pool, MaxPoolBackwardRoutesToArgmax) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 4});
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  Tensor gy({1, 1, 1, 1}, std::vector<float>{2.5f});
  Tensor gx = maxpool2d_backward(gy, argmax, x.shape());
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);  // index of the 9
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(Pool, MaxPoolPropagatesNanAndKeepsGradientInItsImage) {
  // Two images, the second all NaN: the NaN must reach the output, and
  // that window's gradient must land inside image 1, not at image 0's
  // first pixel.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({2, 1, 2, 2}, std::vector<float>{1, 2, 3, 4, nan, nan, nan, nan});
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_TRUE(std::isnan(y[1]));
  Tensor gy({2, 1, 1, 1}, std::vector<float>{10.0f, 5.0f});
  Tensor gx = maxpool2d_backward(gy, argmax, x.shape());
  const std::vector<float> image0(gx.data(), gx.data() + 4);
  EXPECT_EQ(image0, (std::vector<float>{0, 0, 0, 10}));
  EXPECT_FLOAT_EQ(gx[4] + gx[5] + gx[6] + gx[7], 5.0f);
}

TEST(Pool, MaxPoolNanWinsAndNegInfStaysInWindow) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  // Window 0 holds one NaN among finite values; window 1 only -inf.
  Tensor x({1, 1, 2, 4}, std::vector<float>{1, nan, ninf, ninf,  //
                                            9, 4, ninf, ninf});
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d_forward(x, 2, argmax);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(argmax[0], 1u);
  EXPECT_EQ(y[1], ninf);
  EXPECT_EQ(argmax[1], 2u);  // the window's own first element
}

TEST(Pool, MaxPoolRejectsNonDividingWindow) {
  Tensor x({1, 1, 5, 5});
  std::vector<std::size_t> argmax;
  EXPECT_THROW((void)maxpool2d_forward(x, 2, argmax), std::invalid_argument);
}

TEST(Pool, GlobalAvgPoolForwardAndBackward) {
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y(0, 1), 25.0f);
  Tensor gy({1, 2}, std::vector<float>{4.0f, 8.0f});
  Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx(0, 0, 0, 0), 1.0f);   // 4 / 4 pixels
  EXPECT_FLOAT_EQ(gx(0, 1, 1, 1), 2.0f);   // 8 / 4 pixels
}

}  // namespace
}  // namespace fifl::tensor
