// Tests for the hyper-spherical coordinate system (paper Eq. 24-27),
// including parameterized round-trip property sweeps across dimensions.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/simd/kernels.h"
#include "core/perturbation.h"
#include "core/spherical.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(SphericalTest, TwoDimensionalKnownAngles) {
  // Paper Example 1: g = (1, sqrt(3)) has theta = pi/3, ||g|| = 2.
  const Tensor g = Tensor::Vector({1.0f, static_cast<float>(std::sqrt(3.0))});
  const SphericalCoordinates c = ToSpherical(g);
  EXPECT_NEAR(c.magnitude, 2.0, 1e-6);
  ASSERT_EQ(c.angles.size(), 1u);
  EXPECT_NEAR(c.angles[0], kPi / 3.0, 1e-6);
}

TEST(SphericalTest, TwoDimensionalQuadrants) {
  EXPECT_NEAR(ToSpherical(Tensor::Vector({1, 0})).angles[0], 0.0, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({0, 1})).angles[0], kPi / 2, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({-1, 0})).angles[0], kPi, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({0, -1})).angles[0], -kPi / 2, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({-1, -1})).angles[0],
              -3.0 * kPi / 4.0, 1e-6);
}

TEST(SphericalTest, ThreeDimensionalKnownConversion) {
  // (1, 1, sqrt(2)): magnitude 2, theta1 = arctan2(sqrt(1+2), 1) = pi/3,
  // theta2 = arctan2(sqrt(2), 1).
  const float s2 = static_cast<float>(std::sqrt(2.0));
  const Tensor g = Tensor::Vector({1.0f, 1.0f, s2});
  const SphericalCoordinates c = ToSpherical(g);
  EXPECT_NEAR(c.magnitude, 2.0, 1e-6);
  ASSERT_EQ(c.angles.size(), 2u);
  EXPECT_NEAR(c.angles[0], std::atan2(std::sqrt(3.0), 1.0), 1e-6);
  EXPECT_NEAR(c.angles[1], std::atan2(std::sqrt(2.0), 1.0), 1e-6);
}

TEST(SphericalTest, ZeroVectorMapsToZero) {
  const SphericalCoordinates c = ToSpherical(Tensor::Vector({0, 0, 0, 0}));
  EXPECT_EQ(c.magnitude, 0.0);
  for (double a : c.angles) EXPECT_EQ(a, 0.0);
  const Tensor back = ToCartesian(c);
  for (int64_t i = 0; i < back.numel(); ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(SphericalTest, MagnitudeMatchesL2Norm) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor g = Tensor::Randn({16}, rng);
    EXPECT_NEAR(ToSpherical(g).magnitude, g.L2Norm(), 1e-5);
  }
}

TEST(SphericalTest, AngleRanges) {
  Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const Tensor g = Tensor::Randn({8}, rng);
    const SphericalCoordinates c = ToSpherical(g);
    for (size_t z = 0; z + 1 < c.angles.size(); ++z) {
      EXPECT_GE(c.angles[z], 0.0);
      EXPECT_LE(c.angles[z], kPi);
    }
    EXPECT_GE(c.angles.back(), -kPi);
    EXPECT_LE(c.angles.back(), kPi);
  }
}

TEST(SphericalTest, ScalingPreservesDirection) {
  Rng rng(103);
  const Tensor g = Tensor::Randn({10}, rng);
  const SphericalCoordinates a = ToSpherical(g);
  const SphericalCoordinates b = ToSpherical(Scale(g, 3.5f));
  ASSERT_EQ(a.angles.size(), b.angles.size());
  for (size_t z = 0; z < a.angles.size(); ++z) {
    EXPECT_NEAR(a.angles[z], b.angles[z], 1e-5);
  }
  EXPECT_NEAR(b.magnitude, 3.5 * a.magnitude, 1e-4);
}

// Property sweep: round-trip ToCartesian(ToSpherical(g)) == g across
// dimensions.
class SphericalRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SphericalRoundTripTest, RoundTripRecoversVector) {
  const int64_t d = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(d));
  for (int trial = 0; trial < 10; ++trial) {
    const Tensor g = Tensor::Randn({d}, rng);
    const Tensor back = ToCartesian(ToSpherical(g));
    EXPECT_LT(MaxAbsDiff(g, back), 1e-4)
        << "dim=" << d << " trial=" << trial;
  }
}

TEST_P(SphericalRoundTripTest, RoundTripWithAxisAlignedVectors) {
  const int64_t d = GetParam();
  for (int64_t axis = 0; axis < d; ++axis) {
    Tensor g({d});
    g[axis] = 2.0f;
    const Tensor back = ToCartesian(ToSpherical(g));
    EXPECT_LT(MaxAbsDiff(g, back), 1e-5) << "dim=" << d << " axis=" << axis;
  }
}

TEST_P(SphericalRoundTripTest, RoundTripWithNegativeComponents) {
  const int64_t d = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(d));
  Tensor g = Tensor::Randn({d}, rng);
  for (int64_t i = 0; i < d; ++i) g[i] = -std::fabs(g[i]);
  const Tensor back = ToCartesian(ToSpherical(g));
  EXPECT_LT(MaxAbsDiff(g, back), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Dims, SphericalRoundTripTest,
                         ::testing::Values<int64_t>(2, 3, 4, 5, 8, 16, 64,
                                                    256, 1024));

TEST(SphericalTest, AngleSquaredDistance) {
  EXPECT_DOUBLE_EQ(AngleSquaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(AngleSquaredDistance({1.0}, {1.0}), 0.0);
}

TEST(SphericalTest, WrapAnglesCanonicalRanges) {
  // First angles reflect into [0, pi]; last wraps into (-pi, pi].
  const auto wrapped = WrapAngles({-0.5, kPi + 0.5, 3.0 * kPi});
  EXPECT_NEAR(wrapped[0], 0.5, 1e-9);
  EXPECT_NEAR(wrapped[1], kPi - 0.5, 1e-9);
  EXPECT_NEAR(wrapped[2], kPi, 1e-9);
  const auto wrapped2 = WrapAngles({0.3, -kPi - 0.2});
  EXPECT_NEAR(wrapped2[0], 0.3, 1e-9);
  EXPECT_NEAR(wrapped2[1], kPi - 0.2, 1e-9);
}

TEST(SphericalTest, WrapAnglesBoundaryValuesStayInRangeOnEveryTier) {
  // Boundary and extreme inputs for both wrap conventions, checked on
  // every available SIMD tier: the AVX2 tier range-reduces with a
  // floor-based division instead of fmod, and the per-tier contract is
  // that results still land inside the canonical ranges even at inputs
  // like 1e9*pi, where one rounding step of the reduction is larger
  // than the whole output range.
  const SimdTier entry_tier = ActiveSimdTier();
  const std::vector<double> boundary = {-kPi, 0.0, kPi, 2.0 * kPi, 1e9 * kPi};
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    for (const double theta : boundary) {
      SCOPED_TRACE("theta " + std::to_string(theta));
      // Both positions: as a non-final angle (reflects into [0, pi]) and
      // as the final angle (wraps into (-pi, pi]).
      const auto wrapped = WrapAngles({theta, theta});
      EXPECT_GE(wrapped[0], 0.0);
      EXPECT_LE(wrapped[0], kPi);
      EXPECT_GT(wrapped[1], -kPi);
      EXPECT_LE(wrapped[1], kPi);
    }
    // Exact boundary semantics at moderate angles are tier-independent.
    const auto exact = WrapAngles({-kPi, 2.0 * kPi});
    EXPECT_NEAR(exact[0], kPi, 1e-9);
    EXPECT_NEAR(exact[1], 0.0, 1e-9);
    const auto zero = WrapAngles({0.0, kPi});
    EXPECT_NEAR(zero[0], 0.0, 1e-12);
    EXPECT_NEAR(zero[1], kPi, 1e-9);
  }
  SetSimdTier(entry_tier);
}

TEST(SphericalTest, WrapAnglesScalarAndAvx2TiersAgreeClosely) {
  // The tiers may differ in the last bits (different range-reduction
  // algorithms) but must agree to high relative accuracy for angles of
  // ordinary magnitude.
  if (!SimdTierAvailable(SimdTier::kAvx2)) GTEST_SKIP() << "no AVX2 host";
  const SimdTier entry_tier = ActiveSimdTier();
  std::vector<double> angles;
  for (int i = -40; i <= 40; ++i) angles.push_back(0.37 * i);
  angles.push_back(kPi);  // final-angle slot below

  SetSimdTier(SimdTier::kScalar);
  const auto scalar = WrapAngles(angles);
  SetSimdTier(SimdTier::kAvx2);
  const auto avx2 = WrapAngles(angles);
  SetSimdTier(entry_tier);

  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_NEAR(scalar[i], avx2[i], 1e-9) << "angle " << i;
  }
}

TEST(SphericalTest, ClampAnglesSaturates) {
  const auto clamped = ClampAngles({-0.5, 4.0, -4.0});
  EXPECT_EQ(clamped[0], 0.0);
  EXPECT_NEAR(clamped[1], kPi, 1e-9);
  EXPECT_NEAR(clamped[2], -kPi, 1e-9);
}

TEST(SphericalTest, WrapIsIdentityInsideRange) {
  const std::vector<double> angles = {0.5, 2.0, -1.5};
  const auto wrapped = WrapAngles(angles);
  for (size_t i = 0; i < angles.size(); ++i) {
    EXPECT_NEAR(wrapped[i], angles[i], 1e-12);
  }
}

// -- Exactness oracle ------------------------------------------------------
//
// The production transforms run in L1-sized blocks and cut the prefix
// product of sines to a signed zero once every later output must round to
// a float zero. These whole-array transforms are the straightforward
// reference (one SqrtArray / Atan2 / SinCos call over the whole vector, no
// cut); the production ones must match them byte for byte, -0.0f vs +0.0f
// included, on every SIMD tier.

SphericalCoordinates ReferenceToSpherical(const Tensor& g) {
  const int64_t d = g.dim(0);
  SphericalCoordinates coords;
  coords.angles.assign(static_cast<size_t>(d - 1), 0.0);
  std::vector<double> tail(static_cast<size_t>(d), 0.0);
  double sum_sq = 0.0;
  for (int64_t z = d - 1; z >= 0; --z) {
    tail[static_cast<size_t>(z)] = sum_sq;
    sum_sq += static_cast<double>(g[z]) * static_cast<double>(g[z]);
  }
  simd::SqrtArray(tail.data(), tail.data(), d);
  coords.magnitude = std::sqrt(sum_sq);
  if (coords.magnitude == 0.0) return coords;
  std::vector<double> head(static_cast<size_t>(d - 2));
  for (int64_t z = 0; z < d - 2; ++z) {
    head[static_cast<size_t>(z)] = static_cast<double>(g[z]);
  }
  simd::Atan2(tail.data(), head.data(), coords.angles.data(), d - 2);
  coords.angles[static_cast<size_t>(d - 2)] =
      std::atan2(static_cast<double>(g[d - 1]), static_cast<double>(g[d - 2]));
  return coords;
}

Tensor ReferenceToCartesian(const SphericalCoordinates& coords) {
  const int64_t d = coords.CartesianDim();
  Tensor g({d});
  std::vector<double> sins(static_cast<size_t>(d - 1));
  std::vector<double> coss(static_cast<size_t>(d - 1));
  simd::SinCos(coords.angles.data(), sins.data(), coss.data(), d - 1);
  double sin_product = 1.0;
  for (int64_t z = 0; z < d - 1; ++z) {
    g[z] = static_cast<float>(coords.magnitude * sin_product *
                              coss[static_cast<size_t>(z)]);
    sin_product *= sins[static_cast<size_t>(z)];
  }
  g[d - 1] = static_cast<float>(coords.magnitude * sin_product);
  return g;
}

// Byte equality of two equally long arrays; reports the first difference.
template <typename T>
::testing::AssertionResult SameBytes(const T* expected, const T* actual,
                                     size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " of " << count << ": expected "
             << expected[i] << ", got " << actual[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBytes(const Tensor& expected,
                                     const Tensor& actual) {
  if (expected.numel() != actual.numel()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  return SameBytes(expected.data(), actual.data(),
                   static_cast<size_t>(expected.numel()));
}

::testing::AssertionResult SameBytes(const SphericalCoordinates& expected,
                                     const SphericalCoordinates& actual) {
  if (expected.angles.size() != actual.angles.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  ::testing::AssertionResult magnitude =
      SameBytes(&expected.magnitude, &actual.magnitude, 1);
  if (!magnitude) return magnitude << " (magnitude)";
  return SameBytes(expected.angles.data(), actual.angles.data(),
                   expected.angles.size());
}

// Runs `body` once on every available SIMD tier, restoring the entry tier.
template <typename Body>
void ForEachTier(Body body) {
  const SimdTier entry_tier = ActiveSimdTier();
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    body();
  }
  SetSimdTier(entry_tier);
}

// Both transforms against the reference on `g`, and ToCartesian on `coords`.
void ExpectMatchesReference(const Tensor& g) {
  EXPECT_TRUE(SameBytes(ReferenceToSpherical(g), ToSpherical(g)));
}

void ExpectMatchesReference(const SphericalCoordinates& coords) {
  EXPECT_TRUE(SameBytes(ReferenceToCartesian(coords), ToCartesian(coords)));
}

class SphericalReleaseExactnessTest
    : public ::testing::TestWithParam<std::tuple<int64_t, double>> {};

// A full GeoDP release (perfbench's setting: C = 0.1, B = 256, sigma = 1)
// against ToSpherical -> PerturbSpherical -> ToCartesian on the reference
// transforms. At d = 2^20, beta = 0.01 the direction noise drives the
// product of sines far below DBL_MIN; at beta = 1 most angles leave
// [0, pi], so many sines are negative.
TEST_P(SphericalReleaseExactnessTest, ReleaseMatchesWholeArrayReference) {
  const int64_t d = std::get<0>(GetParam());
  const double beta = std::get<1>(GetParam());
  GeoDpOptions options;
  options.base.clip_threshold = 0.1;
  options.base.batch_size = 256;
  options.base.noise_multiplier = 1.0;
  options.beta = beta;
  const GeoDpPerturber perturber(options);
  Rng data_rng(static_cast<uint64_t>(d) * 7 + 1);
  Tensor g = Tensor::Randn({d}, data_rng);
  g = Scale(g, static_cast<float>(0.05 / g.L2Norm()));
  ForEachTier([&] {
    Rng rng(99);
    Rng reference_rng(99);
    const Tensor release = perturber.Perturb(g, rng);
    const SphericalCoordinates noisy =
        perturber.PerturbSpherical(ReferenceToSpherical(g), reference_rng);
    EXPECT_TRUE(SameBytes(ReferenceToCartesian(noisy), release));
    ExpectMatchesReference(g);
    ExpectMatchesReference(noisy);
  });
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndBetas, SphericalReleaseExactnessTest,
    ::testing::Combine(::testing::Values<int64_t>(2, 3, 511, 512, 513, 1025,
                                                  int64_t{1} << 20),
                       ::testing::Values(0.001, 0.01, 1.0)));

// Angles in (pi, 2 pi) and below 0 give negative sines, so the sign of
// the (possibly cut) product flips along the vector.
TEST(SphericalExactnessTest, UnwrappedAnglesMatchReference) {
  Rng rng(7);
  SphericalCoordinates coords;
  coords.magnitude = 0.3;
  for (int i = 0; i < 3000; ++i) {
    coords.angles.push_back(rng.Uniform(-2.0 * kPi, 3.0 * kPi));
  }
  ForEachTier([&] { ExpectMatchesReference(coords); });
}

// An exact sin = 0 mid-vector zeroes every later coordinate, and the sign
// of each zero follows the later sines and cosines.
TEST(SphericalExactnessTest, ExactZeroSineMidVectorMatchesReference) {
  for (const double zero : {0.0, -0.0}) {
    SphericalCoordinates coords;
    coords.magnitude = 1.5;
    for (int i = 0; i < 1500; ++i) coords.angles.push_back(0.4 + 0.37 * i);
    coords.angles[700] = zero;
    ForEachTier([&] {
      ExpectMatchesReference(coords);
      EXPECT_EQ(ToCartesian(coords)[1000], 0.0f);
    });
  }
}

TEST(SphericalExactnessTest, ZeroVectorMatchesReference) {
  Tensor g({1100});
  for (int64_t i = 0; i < g.numel(); i += 3) g[i] = -0.0f;
  ForEachTier([&] {
    ExpectMatchesReference(g);
    ExpectMatchesReference(ToSpherical(g));
  });
}

// With a huge magnitude the product of sines sinks to the smallest double
// subnormal and stays there (x * 0.88 rounds back to x), yet
// 1e300 * 4.9e-324 is still a nonzero float: the tail must stay live.
// With magnitude 1 the same angles end in signed zeros.
TEST(SphericalExactnessTest, HugeMagnitudeKeepsTailLive) {
  SphericalCoordinates coords;
  coords.angles.assign(20000, kPi / 2.0 - 0.5);
  for (const double magnitude : {1e300, -1e300, 1.0}) {
    coords.magnitude = magnitude;
    ForEachTier([&] {
      ExpectMatchesReference(coords);
      const float last = ToCartesian(coords)[19999];
      if (std::fabs(magnitude) > 1.0) {
        EXPECT_NE(last, 0.0f);
      } else {
        EXPECT_EQ(last, 0.0f);
      }
    });
  }
}

// A NaN angle after the cut point still propagates NaN, as without the
// cut; an infinite magnitude never triggers the cut. The angles keep the
// product of sines above zero, so no product has two NaN operands (IEEE 754
// leaves open which of two NaNs propagates).
TEST(SphericalExactnessTest, NonFiniteAnglesMatchReference) {
  SphericalCoordinates coords;
  coords.magnitude = 1.0;
  coords.angles.assign(2000, kPi / 2.0 - 0.5);
  coords.angles[1500] = std::numeric_limits<double>::quiet_NaN();
  ForEachTier([&] { ExpectMatchesReference(coords); });
  coords.magnitude = std::numeric_limits<double>::infinity();
  ForEachTier([&] { ExpectMatchesReference(coords); });
}

// Zero coordinates around a block edge hit Atan2's x == 0 lane patch,
// which reads y again; trailing zeros also make y == 0.
TEST(SphericalExactnessTest, ZerosStraddlingBlockEdgeMatchReference) {
  Rng rng(11);
  Tensor g = Tensor::Randn({1100}, rng);
  for (int64_t i = 505; i < 520; ++i) g[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  ForEachTier([&] { ExpectMatchesReference(g); });
  for (int64_t i = 509; i < g.numel(); ++i) g[i] = 0.0f;
  ForEachTier([&] { ExpectMatchesReference(g); });
}

TEST(SphericalTest, CartesianFromExplicitAngles) {
  // magnitude 2, angles (pi/2, 0) -> (0, 2, 0).
  SphericalCoordinates c;
  c.magnitude = 2.0;
  c.angles = {kPi / 2.0, 0.0};
  const Tensor g = ToCartesian(c);
  EXPECT_NEAR(g[0], 0.0, 1e-6);
  EXPECT_NEAR(g[1], 2.0, 1e-6);
  EXPECT_NEAR(g[2], 0.0, 1e-6);
}

}  // namespace
}  // namespace geodp
