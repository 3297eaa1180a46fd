#include "tensor/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "util/parallel_for.hpp"

namespace fifl::tensor {

namespace {
void check_nchw(const Tensor& t, const char* what) {
  if (t.rank() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected NCHW tensor, got " +
                                t.shape_string());
  }
}

void check_shape(const Tensor& t, const Shape& want, const char* what) {
  if (t.shape() != want) {
    throw std::invalid_argument(std::string(what) + ": expected " +
                                Tensor(want).shape_string() + ", got " +
                                t.shape_string());
  }
}

// One convolution call's geometry, validated against its operands.
struct Geometry {
  ConvSpec spec;
  std::size_t n = 0, h = 0, w = 0, oh = 0, ow = 0;
  std::size_t image = 0;   // C*H*W: floats per input image
  std::size_t pixels = 0;  // OH*OW: output pixels (rows of an image's columns)
  std::size_t patch = 0;   // C*K*K: columns of an image's columns

  Geometry(const Tensor& input, const Tensor& weight, const ConvSpec& s,
           const char* what)
      : spec(s) {
    check_nchw(input, what);
    if (input.dim(1) != s.in_channels) {
      throw std::invalid_argument(std::string(what) + ": channel mismatch");
    }
    n = input.dim(0), h = input.dim(2), w = input.dim(3);
    oh = s.out_dim(h), ow = s.out_dim(w);
    image = s.in_channels * h * w;
    pixels = oh * ow;
    patch = s.in_channels * s.kernel * s.kernel;
    check_shape(weight, {s.out_channels, s.in_channels, s.kernel, s.kernel}, what);
  }

  // Walks one image's row-major (OH*OW, C*K*K) columns one kernel row at a
  // time, in column order (pixel row, then channel, ky): calls
  // visit(i, at, lo, hi), where entries i + kx for kx in [lo, hi) tap the
  // (C,H,W) image at offset at + kx and the others fall in the padding.
  template <typename Visit>
  void for_each_kernel_row(const Visit& visit) const {
    const auto k = static_cast<std::ptrdiff_t>(spec.kernel);
    const auto pad = static_cast<std::ptrdiff_t>(spec.padding);
    const auto ih = static_cast<std::ptrdiff_t>(h), iw = static_cast<std::ptrdiff_t>(w);
    std::size_t i = 0;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * spec.stride) - pad;
        const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-ix0, 0, k);
        const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(iw - ix0, lo, k);
        for (std::size_t ch = 0; ch < spec.in_channels; ++ch) {
          for (std::size_t ky = 0; ky < spec.kernel; ++ky, i += spec.kernel) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) - pad;
            if (iy < 0 || iy >= ih) {
              visit(i, 0, 0, 0);
            } else {
              visit(i, (static_cast<std::ptrdiff_t>(ch) * ih + iy) * iw + ix0, lo, hi);
            }
          }
        }
      }
    }
  }

  // Unfold one image (C,H,W) into its columns (OH*OW, C*K*K).
  void im2col(const float* x, float* cols) const {
    const auto k = static_cast<std::ptrdiff_t>(spec.kernel);
    for_each_kernel_row([&](std::size_t i, std::ptrdiff_t at, std::ptrdiff_t lo,
                            std::ptrdiff_t hi) {
      float* dst = cols + i;
      std::ptrdiff_t kx = 0;
      for (; kx < lo; ++kx) dst[kx] = 0.0f;
      // Four floats per fixed-size copy: one vector move, no libc call.
      for (; kx + 4 <= hi; kx += 4) std::memcpy(dst + kx, x + at + kx, 4 * sizeof(float));
      for (; kx < hi; ++kx) dst[kx] = x[at + kx];
      for (; kx < k; ++kx) dst[kx] = 0.0f;
    });
  }
};

// Per-thread scratch of at least `count` floats, reused across calls.
float* scratch(std::size_t count) {
  thread_local std::vector<float> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}
}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec) {
  const Geometry g(input, weight, spec, "conv2d_forward");
  const std::size_t oc = spec.out_channels;
  check_shape(bias, {oc}, "conv2d_forward bias");
  const kernels::KernelTable& kt = kernels::active();
  Tensor out({g.n, oc, g.oh, g.ow});
  util::parallel_for(
      0, g.n,
      [&](std::size_t img) {
        float* cols = scratch(g.pixels * g.patch);
        g.im2col(input.data() + img * g.image, cols);
        // out_img(OC, OH*OW) = W(OC, patch) · colsᵀ, straight into NCHW.
        float* y = out.data() + img * oc * g.pixels;
        kt.matmul_nt_rows(weight.data(), cols, y, 0, oc, g.patch, g.pixels);
        for (std::size_t ch = 0; ch < oc; ++ch) {
          for (std::size_t p = 0; p < g.pixels; ++p) y[ch * g.pixels + p] += bias[ch];
        }
      },
      /*grain=*/1);
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const ConvSpec& spec) {
  const Geometry g(input, weight, spec, "conv2d_backward");
  const std::size_t oc = spec.out_channels;
  check_shape(grad_output, {g.n, oc, g.oh, g.ow}, "conv2d_backward grad_output");
  const kernels::KernelTable& kt = kernels::active();
  const std::size_t gsize = oc * g.pixels;  // floats of one image's gradient

  Conv2dGrads grads{Tensor(input.shape()), Tensor(weight.shape()), Tensor({oc})};
  // dW(OC, patch) += g_img(OC, OH*OW) · cols_img; db(OC) += row sums of g_img.
  float* cols = scratch(g.pixels * g.patch);
  for (std::size_t img = 0; img < g.n; ++img) {
    const float* gi = grad_output.data() + img * gsize;
    g.im2col(input.data() + img * g.image, cols);
    // order: per dW element, pixels of image 0, then image 1, ... ascending
    // (matmul_rows is axpy-form over its inner index).
    kt.matmul_rows(gi, cols, grads.grad_weight.data(), 0, oc, g.pixels, g.patch);
    for (std::size_t ch = 0; ch < oc; ++ch) {
      const float* row = gi + ch * g.pixels;
      // order: per channel, images ascending, then pixels ascending.
      for (std::size_t p = 0; p < g.pixels; ++p) grads.grad_bias[ch] += row[p];
    }
  }

  // dcols_img(OH*OW, patch) = g_imgᵀ · W, folded back into dX(img).
  util::parallel_for(
      0, g.n,
      [&](std::size_t img) {
        float* dcols = scratch(g.pixels * g.patch);
        std::fill(dcols, dcols + g.pixels * g.patch, 0.0f);
        kt.matmul_tn_rows(grad_output.data() + img * gsize, weight.data(), dcols, 0,
                          g.pixels, oc, g.pixels, g.patch);
        float* dx = grads.grad_input.data() + img * g.image;
        g.for_each_kernel_row([&](std::size_t i, std::ptrdiff_t at, std::ptrdiff_t lo,
                                  std::ptrdiff_t hi) {
          const float* src = dcols + i;
          // order: overlaps accumulate in column order: pixel rows
          // ascending, then channel, ky, kx.
          for (std::ptrdiff_t kx = lo; kx < hi; ++kx) dx[at + kx] += src[kx];
        });
      },
      /*grain=*/1);
  return grads;
}

Tensor maxpool2d_forward(const Tensor& input, std::size_t window,
                         std::vector<std::size_t>& argmax_out) {
  check_nchw(input, "maxpool2d_forward");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  if (window == 0 || h % window != 0 || w % window != 0) {
    throw std::invalid_argument("maxpool2d: window must evenly divide H and W");
  }
  const std::size_t oh = h / window, ow = w / window;
  Tensor out({n, c, oh, ow});
  argmax_out.resize(out.numel());  // every entry is written below
  util::parallel_for(
      0, n * c,
      [&](std::size_t nc) {
        const std::size_t base = nc * h * w;
        const float* plane = input.data() + base;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            // The window's own first element seeds the scan, so a window
            // with nothing above -inf routes its gradient inside itself.
            // `>` never picks a NaN, so a window holding one is scanned
            // again and its first NaN wins: the NaN reaches the output
            // while the hot scan stays a plain compare.
            const std::size_t first = oy * window * w + ox * window;
            float best = plane[first];
            std::size_t best_at = first;
            bool has_nan = false;
            for (std::size_t ky = 0; ky < window; ++ky) {
              for (std::size_t kx = 0; kx < window; ++kx) {
                const std::size_t at = first + ky * w + kx;
                if (plane[at] > best) {
                  best = plane[at];
                  best_at = at;
                }
                has_nan |= std::isnan(plane[at]);
              }
            }
            for (std::size_t k = 0; has_nan && k < window * window; ++k) {
              const std::size_t at = first + (k / window) * w + k % window;
              if (std::isnan(plane[at])) {
                best = plane[at];
                best_at = at;
                break;
              }
            }
            const std::size_t o = (nc * oh + oy) * ow + ox;
            out[o] = best;
            argmax_out[o] = base + best_at;  // flat input index
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_output,
                          const std::vector<std::size_t>& argmax,
                          const Shape& input_shape) {
  Tensor grad_input(input_shape);
  if (argmax.size() != grad_output.numel()) {
    throw std::invalid_argument("maxpool2d_backward: argmax size mismatch");
  }
  const float* g = grad_output.data();
  float* gi = grad_input.data();
  // order: output index ascending; windows are disjoint, so each input
  // index takes at most one term.
  for (std::size_t i = 0; i < argmax.size(); ++i) gi[argmax[i]] += g[i];
  return grad_input;
}

Tensor global_avgpool_forward(const Tensor& input) {
  check_nchw(input, "global_avgpool_forward");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float acc = 0.0f;
      // order: row-major over the plane, y then x ascending.
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) acc += input(img, ch, y, x);
      }
      out(img, ch) = acc * inv;
    }
  }
  return out;
}

Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape) {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("global_avgpool_backward: need NCHW shape");
  }
  const std::size_t n = input_shape[0], c = input_shape[1], h = input_shape[2],
                    w = input_shape[3];
  Tensor grad_input(input_shape);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_output(img, ch) * inv;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) grad_input(img, ch, y, x) = g;
      }
    }
  }
  return grad_input;
}

}  // namespace fifl::tensor
