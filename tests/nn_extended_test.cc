// Tests for the extended NN layers: Sigmoid, LeakyReLU, the MLP model
// factory, and im2col convolution against a direct-loop reference.

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "models/mlp.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/im2col.h"
#include "nn/parameter.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::CheckGradients;

TEST(SigmoidTest, ForwardAnchors) {
  Sigmoid sigmoid;
  const Tensor y = sigmoid.Forward(Tensor::Vector({0.0f, 100.0f, -100.0f}));
  EXPECT_NEAR(y[0], 0.5f, 1e-6);
  EXPECT_NEAR(y[1], 1.0f, 1e-6);
  EXPECT_NEAR(y[2], 0.0f, 1e-6);
}

TEST(SigmoidTest, GradientCheck) {
  Rng rng(5);
  Sigmoid sigmoid;
  const Tensor x = Tensor::Randn({3, 5}, rng);
  const auto result = CheckGradients(sigmoid, x, rng);
  EXPECT_LT(result.max_input_error, 1e-2);
}

TEST(LeakyReLUTest, ForwardSlope) {
  LeakyReLU leaky(0.1f);
  const Tensor y = leaky.Forward(Tensor::Vector({-2.0f, 3.0f}));
  EXPECT_NEAR(y[0], -0.2f, 1e-6);
  EXPECT_NEAR(y[1], 3.0f, 1e-6);
}

TEST(LeakyReLUTest, GradientCheck) {
  Rng rng(6);
  LeakyReLU leaky(0.1f);
  Tensor x = Tensor::Randn({4, 4}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.5f;  // stay off the kink
  }
  const auto result = CheckGradients(leaky, x, rng);
  EXPECT_LT(result.max_input_error, 1e-2);
}

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(7);
  MlpConfig config;
  config.input_dim = 36;
  config.hidden_dims = {16, 8};
  config.num_classes = 5;
  auto model = MakeMlp(config, rng);
  const Tensor x = Tensor::Randn({3, 1, 6, 6}, rng);
  const Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.dim(0), 3);
  EXPECT_EQ(logits.dim(1), 5);
  const int64_t expected = (36 * 16 + 16) + (16 * 8 + 8) + (8 * 5 + 5);
  EXPECT_EQ(TotalParameterCount(model->Parameters()), expected);
}

TEST(MlpTest, GradientCheck) {
  Rng rng(8);
  MlpConfig config;
  config.input_dim = 9;
  config.hidden_dims = {6};
  config.num_classes = 3;
  auto model = MakeMlp(config, rng);
  const Tensor x = Tensor::Randn({2, 1, 3, 3}, rng);
  const auto result = CheckGradients(*model, x, rng);
  EXPECT_LT(result.max_input_error, 5e-2);
  EXPECT_LT(result.max_param_error, 5e-2);
}

TEST(MlpTest, NoHiddenLayersIsLogisticRegression) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 12;
  config.hidden_dims = {};
  config.num_classes = 4;
  auto model = MakeMlp(config, rng);
  EXPECT_EQ(TotalParameterCount(model->Parameters()), 12 * 4 + 4);
}

TEST(Im2ColTest, KnownUnfold) {
  // 1x3x3 image, 2x2 kernel, no padding -> 4 columns of 4 rows.
  const Tensor image =
      Tensor::FromVector({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor columns = Im2Col(image, /*kernel_size=*/2, /*padding=*/0);
  EXPECT_EQ(columns.dim(0), 4);
  EXPECT_EQ(columns.dim(1), 4);
  // First receptive field (top-left): {1, 2, 4, 5} down the rows.
  EXPECT_EQ(columns.at({0, 0}), 1.0f);
  EXPECT_EQ(columns.at({1, 0}), 2.0f);
  EXPECT_EQ(columns.at({2, 0}), 4.0f);
  EXPECT_EQ(columns.at({3, 0}), 5.0f);
  // Last receptive field (bottom-right): {5, 6, 8, 9}.
  EXPECT_EQ(columns.at({0, 3}), 5.0f);
  EXPECT_EQ(columns.at({3, 3}), 9.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  const Tensor image = Tensor::FromVector({1, 1, 1}, {7});
  const Tensor columns = Im2Col(image, /*kernel_size=*/3, /*padding=*/1);
  EXPECT_EQ(columns.dim(0), 9);
  EXPECT_EQ(columns.dim(1), 1);
  // Center tap sees the pixel, all others the zero padding.
  EXPECT_EQ(columns.at({4, 0}), 7.0f);
  EXPECT_NEAR(columns.Sum(), 7.0, 1e-6);
}

TEST(Im2ColTest, Col2ImAccumulatesOverlaps) {
  // All-ones columns folded back: each pixel receives one contribution per
  // receptive field covering it.
  const Tensor ones = Tensor::Full({4, 4}, 1.0f);  // 2x2 kernel on 3x3
  const Tensor image = Col2Im(ones, 1, 3, 3, /*kernel_size=*/2,
                              /*padding=*/0);
  // Corner pixels are covered once, center 4 times.
  EXPECT_EQ(image.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(image.at({0, 1, 1}), 4.0f);
  EXPECT_EQ(image.at({0, 2, 2}), 1.0f);
}

// Reference convolution: direct nested loops over [B, IC, H, W] input,
// [OC, IC, K, K] weight and [OC] bias, stride 1, symmetric zero padding.
// Slow but easy to audit; Conv2d's im2col lowering is checked against it.
Tensor DirectConvForward(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, int64_t padding) {
  const int64_t batch = input.dim(0), in_channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_channels = weight.dim(0), k = weight.dim(2);
  const int64_t out_h = in_h + 2 * padding - k + 1;
  const int64_t out_w = in_w + 2 * padding - k + 1;
  Tensor output({batch, out_channels, out_h, out_w});
  const float* x = input.data();
  const float* w = weight.data();
  float* y = output.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_channels; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias[oc];
          for (int64_t ic = 0; ic < in_channels; ++ic) {
            for (int64_t kh = 0; kh < k; ++kh) {
              const int64_t ih = oh + kh - padding;
              if (ih < 0 || ih >= in_h) continue;
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t iw = ow + kw - padding;
                if (iw < 0 || iw >= in_w) continue;
                acc += static_cast<double>(
                           x[((b * in_channels + ic) * in_h + ih) * in_w +
                             iw]) *
                       static_cast<double>(
                           w[((oc * in_channels + ic) * k + kh) * k + kw]);
              }
            }
          }
          y[((b * out_channels + oc) * out_h + oh) * out_w + ow] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return output;
}

// Backward of DirectConvForward: returns dL/dinput and adds the parameter
// gradients into weight_grad and bias_grad.
Tensor DirectConvBackward(const Tensor& input, const Tensor& weight,
                          const Tensor& grad_output, int64_t padding,
                          Tensor& weight_grad, Tensor& bias_grad) {
  const int64_t batch = input.dim(0), in_channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_channels = weight.dim(0), k = weight.dim(2);
  const int64_t out_h = grad_output.dim(2), out_w = grad_output.dim(3);
  Tensor grad_input(input.shape());
  const float* x = input.data();
  const float* w = weight.data();
  const float* gy = grad_output.data();
  float* gx = grad_input.data();
  float* gw = weight_grad.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_channels; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          const float g =
              gy[((b * out_channels + oc) * out_h + oh) * out_w + ow];
          if (g == 0.0f) continue;
          bias_grad[oc] += g;
          for (int64_t ic = 0; ic < in_channels; ++ic) {
            for (int64_t kh = 0; kh < k; ++kh) {
              const int64_t ih = oh + kh - padding;
              if (ih < 0 || ih >= in_h) continue;
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t iw = ow + kw - padding;
                if (iw < 0 || iw >= in_w) continue;
                const int64_t xi =
                    ((b * in_channels + ic) * in_h + ih) * in_w + iw;
                const int64_t wi = ((oc * in_channels + ic) * k + kh) * k + kw;
                gw[wi] += g * x[xi];
                gx[xi] += g * w[wi];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

class ConvImplEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ConvImplEquivalenceTest, ForwardAndBackwardMatchDirect) {
  const auto& [kernel, padding] = GetParam();
  Rng rng(42);
  Conv2d conv(2, 3, kernel, rng, padding);
  const Tensor& weight = conv.Parameters()[0]->value;
  const Tensor& bias = conv.Parameters()[1]->value;
  Rng data_rng(7);
  const Tensor x = Tensor::Randn({2, 2, 6, 6}, data_rng);
  const Tensor y = conv.Forward(x);
  const Tensor y_direct = DirectConvForward(x, weight, bias, padding);
  ASSERT_TRUE(SameShape(y_direct, y));
  EXPECT_LT(MaxAbsDiff(y_direct, y), 1e-4);

  const Tensor gy = Tensor::Randn(y.shape(), data_rng);
  Tensor weight_grad = Tensor::Zeros(weight.shape());
  Tensor bias_grad = Tensor::Zeros(bias.shape());
  const Tensor gx_direct =
      DirectConvBackward(x, weight, gy, padding, weight_grad, bias_grad);
  const Tensor gx = conv.Backward(gy);
  EXPECT_LT(MaxAbsDiff(gx_direct, gx), 1e-4);
  EXPECT_LT(MaxAbsDiff(weight_grad, conv.Parameters()[0]->grad), 1e-3);
  EXPECT_LT(MaxAbsDiff(bias_grad, conv.Parameters()[1]->grad), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPadding, ConvImplEquivalenceTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 5),
                       ::testing::Values<int64_t>(0, 1, 2)));

}  // namespace
}  // namespace geodp
