#include "nn/conv2d.h"

#include <algorithm>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "nn/im2col.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace geodp {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               Rng& rng, int64_t padding, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      padding_(padding),
      with_bias_(with_bias),
      weight_("weight",
              KaimingUniform({out_channels, in_channels, kernel_size,
                              kernel_size},
                             in_channels * kernel_size * kernel_size, rng)),
      bias_("bias", Tensor::Zeros({out_channels})) {
  GEODP_CHECK_GT(in_channels_, 0);
  GEODP_CHECK_GT(out_channels_, 0);
  GEODP_CHECK_GT(kernel_size_, 0);
  GEODP_CHECK_GE(padding_, 0);
}

Tensor Conv2d::Forward(const Tensor& input) {
  GEODP_CHECK_EQ(input.ndim(), 4);
  GEODP_CHECK_EQ(input.dim(1), in_channels_);
  cached_input_ = input;
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = in_h + 2 * padding_ - kernel_size_ + 1;
  const int64_t out_w = in_w + 2 * padding_ - kernel_size_ + 1;
  GEODP_CHECK_GT(out_h, 0);
  GEODP_CHECK_GT(out_w, 0);

  const Tensor weight_matrix = weight_.value.Reshape(
      {out_channels_, in_channels_ * kernel_size_ * kernel_size_});
  Tensor output({batch, out_channels_, out_h, out_w});
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = in_channels_ * in_h * in_w;
  for (int64_t b = 0; b < batch; ++b) {
    Tensor image({in_channels_, in_h, in_w});
    std::copy(input.data() + b * image_size,
              input.data() + (b + 1) * image_size, image.data());
    const Tensor columns = Im2Col(image, kernel_size_, padding_);
    const Tensor result = Matmul(weight_matrix, columns);  // [OC, OHW]
    float* out = output.data() + b * out_channels_ * spatial;
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float bias = with_bias_ ? bias_.value[oc] : 0.0f;
      for (int64_t i = 0; i < spatial; ++i) {
        out[oc * spatial + i] = result[oc * spatial + i] + bias;
      }
    }
  }
  return output;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  GEODP_CHECK_EQ(grad_output.ndim(), 4);
  const Tensor& input = cached_input_;
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = grad_output.dim(2), out_w = grad_output.dim(3);
  GEODP_CHECK_EQ(grad_output.dim(0), batch);
  GEODP_CHECK_EQ(grad_output.dim(1), out_channels_);

  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = in_channels_ * in_h * in_w;
  const Tensor weight_matrix =
      weight_.value.Reshape({out_channels_, kk});
  Tensor weight_grad_matrix({out_channels_, kk});
  Tensor grad_input(input.shape());

  for (int64_t b = 0; b < batch; ++b) {
    Tensor image({in_channels_, in_h, in_w});
    std::copy(input.data() + b * image_size,
              input.data() + (b + 1) * image_size, image.data());
    const Tensor columns = Im2Col(image, kernel_size_, padding_);

    Tensor gy({out_channels_, spatial});
    std::copy(grad_output.data() + b * out_channels_ * spatial,
              grad_output.data() + (b + 1) * out_channels_ * spatial,
              gy.data());
    // dW += dY @ cols^T; dX_cols = W^T @ dY.
    weight_grad_matrix.AddInPlace(Matmul(gy, Transpose(columns)));
    const Tensor grad_columns = Matmul(Transpose(weight_matrix), gy);
    const Tensor grad_image = Col2Im(grad_columns, in_channels_, in_h, in_w,
                                     kernel_size_, padding_);
    std::copy(grad_image.data(), grad_image.data() + image_size,
              grad_input.data() + b * image_size);
    if (with_bias_) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        double sum = 0.0;
        for (int64_t i = 0; i < spatial; ++i)
          sum += static_cast<double>(gy[oc * spatial + i]);
        bias_.grad[oc] += static_cast<float>(sum);
      }
    }
  }
  weight_.grad.AddInPlace(
      weight_grad_matrix.Reshape(weight_.value.shape()));
  return grad_input;
}

Tensor Conv2d::GhostBackward(
    const Tensor& grad_output,
    std::vector<double>& ghost_norm_sq) {  // geodp: per-sample norms out
  GEODP_CHECK_EQ(grad_output.ndim(), 4);
  const Tensor& input = cached_input_;
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = grad_output.dim(2), out_w = grad_output.dim(3);
  GEODP_CHECK_EQ(grad_output.dim(0), batch);
  GEODP_CHECK_EQ(grad_output.dim(1), out_channels_);
  GEODP_CHECK_EQ(ghost_norm_sq.size(),  // geodp: per-sample
                 static_cast<size_t>(batch));

  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = in_channels_ * in_h * in_w;
  const Tensor weight_t =
      Transpose(weight_.value.Reshape({out_channels_, kk}));  // [kk, OC]
  Tensor grad_input(input.shape());
  cached_grad_output_ = grad_output;
  if (cached_columns_t_.numel() != batch * spatial * kk) {
    cached_columns_t_ = Tensor({batch, spatial, kk});
  }

  // Scratch reused across the whole batch: one [kk, S] unfold, one
  // unfolded-basis gradient, one input-gradient column matrix. No
  // per-sample tensors are allocated.
  Tensor cols({kk, spatial});
  Tensor sample_grad({out_channels_, kk});  // geodp: per-sample (transient)
  Tensor grad_cols({kk, spatial});

  for (int64_t b = 0; b < batch; ++b) {
    Im2ColInto(input.data() + b * image_size, in_channels_, in_h, in_w,
               kernel_size_, padding_, cols.data());
    // Cache cols_b^T so GhostAccumulate can replay the weighted matmul
    // without re-unfolding the input.
    float* cols_t = cached_columns_t_.data() + b * spatial * kk;
    for (int64_t r = 0; r < kk; ++r) {
      const float* col_row = cols.data() + r * spatial;
      for (int64_t s = 0; s < spatial; ++s) cols_t[s * kk + r] = col_row[s];
    }

    const float* gy = grad_output.data() + b * out_channels_ * spatial;
    // Sample b's weight gradient in the unfolded basis: G_b = gy_b cols^T
    // ([OC, kk], a few kB at this library's shapes). Its squared norm is
    // all that survives; the scratch is overwritten by the next sample.
    std::fill(sample_grad.data(),                       // geodp: per-sample
              sample_grad.data() + out_channels_ * kk,  // geodp: per-sample
              0.0f);
    simd::MatmulRowBlock(gy, cols_t,
                         sample_grad.data(),  // geodp: per-sample
                         0, out_channels_, spatial, kk);
    double norm_sq = simd::SumSquares(
        sample_grad.data(),    // geodp: per-sample
        out_channels_ * kk);   // geodp: per-sample norm squared
    if (with_bias_) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        double sum = 0.0;
        for (int64_t i = 0; i < spatial; ++i)
          sum += static_cast<double>(gy[oc * spatial + i]);
        norm_sq += sum * sum;
      }
    }
    ghost_norm_sq[static_cast<size_t>(b)] += norm_sq;  // geodp: per-sample

    // dL/dinput exactly as Backward computes it (no parameter
    // gradients are touched in this pass).
    std::fill(grad_cols.data(), grad_cols.data() + kk * spatial, 0.0f);
    simd::MatmulRowBlock(weight_t.data(), gy, grad_cols.data(), 0, kk,
                         out_channels_, spatial);
    Col2ImInto(grad_cols.data(), in_channels_, in_h, in_w, kernel_size_,
               padding_, grad_input.data() + b * image_size);
  }
  return grad_input;
}

void Conv2d::GhostAccumulate(const std::vector<double>& weights) {
  GEODP_CHECK(!cached_grad_output_.empty())
      << "GhostAccumulate before GhostBackward";
  const int64_t batch = cached_grad_output_.dim(0);
  GEODP_CHECK_EQ(static_cast<int64_t>(weights.size()), batch);
  const int64_t out_h = cached_grad_output_.dim(2);
  const int64_t out_w = cached_grad_output_.dim(3);

  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial = out_h * out_w;
  GEODP_CHECK_EQ(cached_columns_t_.numel(), batch * spatial * kk);
  Tensor weight_grad_matrix({out_channels_, kk});
  Tensor sample_grad({out_channels_, kk});  // geodp: per-sample (transient)

  for (int64_t b = 0; b < batch; ++b) {
    // Zero-weight samples (non-finite exclusions) are skipped outright —
    // never multiplied, so 0 * inf cannot poison the accumulation.
    const double scale = weights[static_cast<size_t>(b)];
    if (scale == 0.0) continue;
    const float* gy =
        cached_grad_output_.data() + b * out_channels_ * spatial;
    const float* cols_t = cached_columns_t_.data() + b * spatial * kk;
    // Replay G_b = gy_b cols^T from the cached unfold, then fold it into
    // the batch sum under the clip weight.
    std::fill(sample_grad.data(),                       // geodp: per-sample
              sample_grad.data() + out_channels_ * kk,  // geodp: per-sample
              0.0f);
    simd::MatmulRowBlock(gy, cols_t,
                         sample_grad.data(),  // geodp: per-sample
                         0, out_channels_, spatial, kk);
    simd::ClipAxpy(weight_grad_matrix.data(),
                   sample_grad.data(),  // geodp: per-sample
                   static_cast<float>(scale), out_channels_ * kk);
    if (with_bias_) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        double sum = 0.0;
        for (int64_t i = 0; i < spatial; ++i)
          sum += static_cast<double>(gy[oc * spatial + i]);
        bias_.grad[oc] += static_cast<float>(scale * sum);
      }
    }
  }
  weight_.grad.AddInPlace(weight_grad_matrix.Reshape(weight_.value.shape()));
}

std::vector<Parameter*> Conv2d::Parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace geodp
