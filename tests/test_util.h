// Shared helpers for the unit tests: per-test temporary paths, and
// finite-difference gradient checking against the analytic backward passes.

#ifndef GEODP_TESTS_TEST_UTIL_H_
#define GEODP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "base/rng.h"
#include "nn/module.h"
#include "nn/parameter.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace testing_util {

// Path of `name` inside a temporary directory owned by the running test:
// <TempDir>/geodp-<suite>.<test>/<name>. ctest runs every test in its own
// process, in parallel under -j, so a name shared by two tests would
// otherwise let one test overwrite or delete the other's files. The
// directory is created on first use; `name` itself is not.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string owner = info == nullptr ? std::string("no-test")
                                      : std::string(info->test_suite_name()) +
                                            "." + info->name();
  // Parameterized tests are named "Prefix/Suite.Test/3".
  std::replace(owner.begin(), owner.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("geodp-" + owner);
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

// TestTempPath(name) as an empty directory, removing what an earlier run
// of the same test left there.
inline std::string FreshTestTempDir(const std::string& name) {
  const std::string dir = TestTempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Scalar objective used by the checks: f(x) = sum_i c_i * layer(x)_i with
// fixed random coefficients c, whose analytic gradient seed is simply c.
struct GradCheckResult {
  double max_input_error = 0.0;
  double max_param_error = 0.0;
};

inline double EvalObjective(Layer& layer, const Tensor& input,
                            const Tensor& coefficients) {
  const Tensor out = layer.Forward(input);
  return Dot(out, coefficients);
}

// Compares the layer's analytic input/parameter gradients against central
// finite differences. `epsilon` is the probe step.
inline GradCheckResult CheckGradients(Layer& layer, const Tensor& input,
                                      Rng& rng, double epsilon = 1e-3) {
  // Forward once to learn the output shape, then fix coefficients.
  Tensor probe_out = layer.Forward(input);
  Tensor coefficients = Tensor::Randn(probe_out.shape(), rng);

  // Analytic pass.
  const std::vector<Parameter*> params = layer.Parameters();
  ZeroGradients(params);
  layer.Forward(input);
  const Tensor analytic_input_grad = layer.Backward(coefficients);
  const Tensor analytic_param_grad = FlattenGradients(params);

  GradCheckResult result;

  // Numeric input gradient.
  Tensor x = input;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + static_cast<float>(epsilon);
    const double up = EvalObjective(layer, x, coefficients);
    x[i] = saved - static_cast<float>(epsilon);
    const double down = EvalObjective(layer, x, coefficients);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * epsilon);
    result.max_input_error = std::max(
        result.max_input_error,
        std::fabs(numeric - static_cast<double>(analytic_input_grad[i])));
  }

  // Numeric parameter gradient.
  int64_t flat_offset = 0;
  for (Parameter* p : params) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(epsilon);
      const double up = EvalObjective(layer, input, coefficients);
      p->value[i] = saved - static_cast<float>(epsilon);
      const double down = EvalObjective(layer, input, coefficients);
      p->value[i] = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      result.max_param_error =
          std::max(result.max_param_error,
                   std::fabs(numeric -
                             static_cast<double>(
                                 analytic_param_grad[flat_offset + i])));
    }
    flat_offset += p->value.numel();
  }
  return result;
}

}  // namespace testing_util
}  // namespace geodp

#endif  // GEODP_TESTS_TEST_UTIL_H_
