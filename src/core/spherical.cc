#include "core/spherical.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"

namespace geodp {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Elements per block of the spherical transforms: the blocks' scratch
// lives on the stack and stays in L1, whatever the dimension.
constexpr int64_t kBlock = 512;

// A double below 2^-151 in magnitude converts to float zero (half the
// smallest float subnormal is 2^-150), with a margin.
constexpr double kDeadTail = 0x1p-151;

}  // namespace

SphericalCoordinates ToSpherical(const Tensor& g) {
  GEODP_CHECK_EQ(g.ndim(), 1);
  const int64_t d = g.dim(0);
  GEODP_CHECK_GE(d, 2) << "spherical coordinates need dimension >= 2";

  SphericalCoordinates coords;
  coords.angles.resize(static_cast<size_t>(d - 1));
  double* angles = coords.angles.data();

  // theta_z = atan2(tail_z, g_z) for z < d-2, where tail_z is the norm of
  // g_{z+1..d-1} (0-based). The suffix sums of squares accumulate
  // back-to-front (for stability and the historical rounding order), so
  // the blocks run back-to-front too: each one finishes its suffix sums,
  // then takes the square roots and the atan2 through the batched kernels.
  // Blocks start at multiples of kBlock, so each kernel sees the same
  // 4-lane groups and the same scalar tail as one whole-array call would.
  const int64_t n = d - 2;
  double sum_sq = 0.0;
  for (int64_t z = d - 1; z >= n; --z) {
    const double v = static_cast<double>(g[z]);
    sum_sq += v * v;
  }
  std::array<double, kBlock> tail{};
  std::array<double, kBlock> head{};
  const int64_t last_block = n > 0 ? (n - 1) / kBlock * kBlock : 0;
  for (int64_t lo = last_block; lo >= 0; lo -= kBlock) {
    const int64_t len = std::min(kBlock, n - lo);
    for (int64_t i = len - 1; i >= 0; --i) {
      const auto k = static_cast<size_t>(i);
      tail[k] = sum_sq;
      head[k] = static_cast<double>(g[lo + i]);
      sum_sq += head[k] * head[k];
    }
    simd::SqrtArray(tail.data(), tail.data(), len);
    simd::Atan2(tail.data(), head.data(), angles + lo, len);
  }
  coords.magnitude = std::sqrt(sum_sq);
  if (coords.magnitude == 0.0) {
    // The zero vector maps to all-zero angles (atan2 of signed zeros would
    // give pi for -0 coordinates).
    std::fill(coords.angles.begin(), coords.angles.end(), 0.0);
    return coords;
  }
  angles[d - 2] =
      std::atan2(static_cast<double>(g[d - 1]), static_cast<double>(g[d - 2]));
  return coords;
}

Tensor ToCartesian(const SphericalCoordinates& coords) {
  const int64_t d = coords.CartesianDim();
  GEODP_CHECK_GE(d, 2);
  Tensor g({d});
  float* out = g.data();
  const double magnitude = coords.magnitude;
  // Batched sin/cos of one block of angles at a time, then the (inherently
  // serial) prefix product of sines in the historical multiplication order.
  std::array<double, kBlock> sins{};
  std::array<double, kBlock> coss{};
  double sin_product = 1.0;  // sin(theta_1) * ... * sin(theta_{z-1})
  for (int64_t lo = 0; lo < d - 1; lo += kBlock) {
    const int64_t len = std::min(kBlock, d - 1 - lo);
    simd::SinCos(coords.angles.data() + lo, sins.data(), coss.data(), len);
    for (int64_t i = 0; i < len; ++i) {
      const double scaled = magnitude * sin_product;
      // Dead tail: |sin| <= 1, so no later |magnitude * sin_product| can
      // exceed this one, and every later output rounds to a float zero
      // whose sign is the XOR of its factors' signs. A signed-zero product
      // keeps that sign and stops the double multiplies from sinking into
      // (slow, microcode-assisted) subnormals. NaN and inf fail the
      // comparison, and a later NaN sine still propagates.
      if (std::fabs(scaled) < kDeadTail) {
        sin_product = std::copysign(0.0, sin_product);
      }
      const auto k = static_cast<size_t>(i);
      out[lo + i] = static_cast<float>(scaled * coss[k]);
      sin_product *= sins[k];
    }
  }
  out[d - 1] = static_cast<float>(magnitude * sin_product);
  return g;
}

std::vector<SphericalCoordinates> BatchToSpherical(
    const std::vector<Tensor>& gradients) {
  std::vector<SphericalCoordinates> coords(gradients.size());
  ParallelFor(0, static_cast<int64_t>(gradients.size()), /*grain=*/1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  coords[static_cast<size_t>(i)] =
                      ToSpherical(gradients[static_cast<size_t>(i)]);
                }
              });
  return coords;
}

std::vector<Tensor> BatchToCartesian(
    const std::vector<SphericalCoordinates>& coords) {
  std::vector<Tensor> gradients(coords.size());
  ParallelFor(0, static_cast<int64_t>(coords.size()), /*grain=*/1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  gradients[static_cast<size_t>(i)] =
                      ToCartesian(coords[static_cast<size_t>(i)]);
                }
              });
  return gradients;
}

double AngleSquaredDistance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  GEODP_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

std::vector<double> WrapAngles(std::vector<double> angles) {
  const size_t n = angles.size();
  if (n == 0) return angles;
  // The first n-1 angles reflect into [0, pi] (half-plane directions)
  // through the dispatched kernel: the scalar tier keeps the historical
  // fmod loop bit-for-bit, the AVX2 tier uses a floor-based reduction.
  simd::WrapReflect(angles.data(), static_cast<int64_t>(n) - 1);
  // The final azimuthal angle wraps into (-pi, pi].
  double theta = std::fmod(angles[n - 1] + kPi, 2.0 * kPi);
  if (theta <= 0) theta += 2.0 * kPi;
  angles[n - 1] = theta - kPi;
  return angles;
}

std::vector<double> ClampAngles(std::vector<double> angles) {
  const size_t n = angles.size();
  for (size_t i = 0; i < n; ++i) {
    const double lo = (i + 1 < n) ? 0.0 : -kPi;
    const double hi = kPi;
    if (angles[i] < lo) angles[i] = lo;
    if (angles[i] > hi) angles[i] = hi;
  }
  return angles;
}

}  // namespace geodp
