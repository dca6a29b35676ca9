// Tests for the DP substrate: the Gaussian mechanism, composition
// theorems and the RDP accountant.

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "dp/composition.h"
#include "dp/gaussian_mechanism.h"
#include "dp/rdp_accountant.h"
#include "stats/summary.h"

namespace geodp {
namespace {

TEST(GaussianCalibrationTest, SigmaFormula) {
  const double sigma = GaussianSigmaForEpsilonDelta(1.0, 1e-5);
  EXPECT_NEAR(sigma, std::sqrt(2.0 * std::log(1.25e5)), 1e-9);
}

TEST(GaussianCalibrationTest, RoundTrip) {
  for (double eps : {0.1, 1.0, 4.9, 15.3}) {
    const double sigma = GaussianSigmaForEpsilonDelta(eps, 1e-5);
    EXPECT_NEAR(GaussianEpsilonForSigma(sigma, 1e-5), eps, 1e-9);
  }
}

TEST(GaussianCalibrationTest, PaperSigmaEpsilonTable) {
  // Paper Fig. 3 caption: sigma in {1e-4,...,10} corresponds to epsilon in
  // {484.5, 153.2, 48.5, 15.3, 4.9, 1.5} at delta=1e-5 — i.e. the classic
  // calibration evaluated at sigma in {1e-2, ..., 10} after the paper's
  // sensitivity conventions. We check the monotone mapping and two anchors.
  EXPECT_NEAR(GaussianEpsilonForSigma(1.0, 1e-5), 4.85, 0.05);
  EXPECT_NEAR(GaussianEpsilonForSigma(10.0, 1e-5), 0.485, 0.005);
  EXPECT_GT(GaussianEpsilonForSigma(0.1, 1e-5),
            GaussianEpsilonForSigma(1.0, 1e-5));
}

TEST(GaussianMechanismTest, StddevAndMoments) {
  GaussianMechanism mech({.l2_sensitivity = Sensitivity(2.0),
                          .noise_multiplier = NoiseMultiplier(1.5)});
  EXPECT_DOUBLE_EQ(mech.NoiseStddev(), 3.0);
  Rng rng(1);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(mech.Perturb(10.0, rng));
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.05);
}

TEST(GaussianMechanismTest, TensorPerturbShape) {
  GaussianMechanism mech({.l2_sensitivity = Sensitivity(1.0),
                          .noise_multiplier = NoiseMultiplier(0.0)});
  Rng rng(2);
  const Tensor t = Tensor::Vector({1, 2, 3});
  const Tensor noisy = mech.Perturb(t, rng);
  EXPECT_EQ(noisy.numel(), 3);
  EXPECT_EQ(noisy[1], 2.0f);  // sigma 0 -> unchanged
}

TEST(CompositionTest, BasicComposition) {
  const PrivacyGuarantee total = BasicComposition({0.1, 1e-6}, 100);
  EXPECT_NEAR(total.epsilon, 10.0, 1e-9);
  EXPECT_NEAR(total.delta, 1e-4, 1e-12);
}

TEST(CompositionTest, AdvancedBeatsBasicForManySteps) {
  const PrivacyGuarantee per_step{0.01, 0.0};
  const PrivacyGuarantee basic = BasicComposition(per_step, 10000);
  const PrivacyGuarantee advanced =
      AdvancedComposition(per_step, 10000, 1e-5);
  EXPECT_LT(advanced.epsilon, basic.epsilon);
}

TEST(CompositionTest, BasicBeatsAdvancedForFewSteps) {
  const PrivacyGuarantee per_step{0.01, 0.0};
  const PrivacyGuarantee best = BestComposition(per_step, 2, 1e-5);
  EXPECT_NEAR(best.epsilon, 0.02, 1e-12);  // basic wins
}

TEST(CompositionTest, AdvancedFormula) {
  const PrivacyGuarantee per_step{0.1, 1e-7};
  const PrivacyGuarantee total = AdvancedComposition(per_step, 100, 1e-5);
  const double expected =
      std::sqrt(2.0 * 100.0 * std::log(1e5)) * 0.1 +
      100.0 * 0.1 * (std::exp(0.1) - 1.0);
  EXPECT_NEAR(total.epsilon, expected, 1e-9);
  EXPECT_NEAR(total.delta, 100.0 * 1e-7 + 1e-5, 1e-15);
}

TEST(RdpTest, GaussianRdpFormula) {
  EXPECT_DOUBLE_EQ(GaussianRdp(2.0, 8.0), 1.0);
  EXPECT_DOUBLE_EQ(GaussianRdp(1.0, 2.0), 1.0);
}

TEST(RdpTest, SubsampledZeroRateIsFree) {
  EXPECT_DOUBLE_EQ(SubsampledGaussianRdp(1.0, 0.0, 8), 0.0);
}

TEST(RdpTest, SubsampledFullRateEqualsGaussian) {
  EXPECT_DOUBLE_EQ(SubsampledGaussianRdp(1.5, 1.0, 8),
                   GaussianRdp(1.5, 8.0));
}

TEST(RdpTest, SubsamplingAmplifiesPrivacy) {
  for (int64_t alpha : {2, 4, 16, 64}) {
    const double subsampled = SubsampledGaussianRdp(1.0, 0.01, alpha);
    const double full = GaussianRdp(1.0, static_cast<double>(alpha));
    EXPECT_LT(subsampled, full) << "alpha=" << alpha;
  }
}

TEST(RdpTest, SubsampledRdpIncreasesWithRate) {
  const double lo = SubsampledGaussianRdp(1.0, 0.01, 8);
  const double hi = SubsampledGaussianRdp(1.0, 0.1, 8);
  EXPECT_LT(lo, hi);
}

TEST(RdpTest, SubsampledRdpDecreasesWithSigma) {
  const double noisy = SubsampledGaussianRdp(4.0, 0.05, 8);
  const double less_noisy = SubsampledGaussianRdp(0.5, 0.05, 8);
  EXPECT_LT(noisy, less_noisy);
}

TEST(RdpAccountantTest, DefaultOrdersStartAtTwo) {
  const auto orders = RdpAccountant::DefaultOrders();
  EXPECT_EQ(orders.front(), 2);
  EXPECT_EQ(orders.back(), 1024);
}

TEST(RdpAccountantTest, EpsilonGrowsWithSteps) {
  RdpAccountant a, b;
  a.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.01), 100);
  b.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.01), 1000);
  EXPECT_LT(a.GetEpsilon(Delta(1e-5)), b.GetEpsilon(Delta(1e-5)));
}

TEST(RdpAccountantTest, EpsilonShrinksWithSigma) {
  RdpAccountant a, b;
  a.AddSubsampledGaussianSteps(NoiseMultiplier(0.5), SamplingRate(0.01), 100);
  b.AddSubsampledGaussianSteps(NoiseMultiplier(4.0), SamplingRate(0.01), 100);
  EXPECT_GT(a.GetEpsilon(Delta(1e-5)), b.GetEpsilon(Delta(1e-5)));
}

TEST(RdpAccountantTest, StepsCompose) {
  RdpAccountant once, twice;
  once.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                  200);
  twice.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                   100);
  twice.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                   100);
  EXPECT_NEAR(once.GetEpsilon(Delta(1e-5)), twice.GetEpsilon(Delta(1e-5)),
              1e-9);
}

TEST(RdpAccountantTest, FullGaussianMatchesClosedFormConversion) {
  // For the un-subsampled Gaussian, eps(alpha) = T*alpha/(2 sigma^2) +
  // log(1/delta)/(alpha-1); the accountant must find the min over orders.
  const double sigma = 2.0;
  const int64_t steps = 10;
  RdpAccountant accountant;
  accountant.AddGaussianSteps(NoiseMultiplier(sigma), steps);
  double expected = 1e300;
  for (int64_t alpha : RdpAccountant::DefaultOrders()) {
    const double a = static_cast<double>(alpha);
    expected = std::min(
        expected, steps * a / (2.0 * sigma * sigma) +
                      std::log(1e5) / (a - 1.0));
  }
  EXPECT_NEAR(accountant.GetEpsilon(Delta(1e-5)), expected, 1e-12);
}

TEST(RdpAccountantTest, TighterThanAdvancedComposition) {
  // RDP accounting of a realistic DP-SGD run should beat advanced
  // composition of per-step guarantees.
  const double sigma = 2.0;
  const double q = 0.01;
  const int64_t steps = 1000;
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(sigma),
                                        SamplingRate(q), steps);
  const double rdp_eps = accountant.GetEpsilon(Delta(1e-5));

  const double per_step_eps = GaussianEpsilonForSigma(sigma, 1e-6);
  const PrivacyGuarantee adv =
      AdvancedComposition({per_step_eps, 1e-6}, steps, 1e-6);
  EXPECT_LT(rdp_eps, adv.epsilon);
}

TEST(RdpAccountantTest, OptimalOrderIsTracked) {
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(1.0),
                                        SamplingRate(0.01), 500);
  const int64_t order = accountant.GetOptimalOrder(Delta(1e-5));
  const double eps = accountant.GetEpsilon(Delta(1e-5));
  // Recompute epsilon at the reported order.
  const auto& orders = accountant.orders();
  const auto& rdp = accountant.cumulative_rdp();
  for (size_t i = 0; i < orders.size(); ++i) {
    if (orders[i] == order) {
      const double a = static_cast<double>(order);
      EXPECT_NEAR(eps, rdp[i] + std::log(1e5) / (a - 1.0), 1e-12);
    }
  }
}

TEST(RdpAccountantTest, ZeroStepsZeroEpsilonPlusConversionTerm) {
  RdpAccountant accountant;
  // With no steps, epsilon is just the minimal conversion overhead.
  const double eps = accountant.GetEpsilon(Delta(1e-5));
  EXPECT_NEAR(eps, std::log(1e5) / (1024.0 - 1.0), 1e-9);
}

TEST(RdpAccountantTest, SnapshotReportsZeroBeforeAnySpend) {
  // Unlike GetEpsilon (which reports the vacuous conversion term), a
  // snapshot of an untouched accountant is all zeros — what the per-step
  // telemetry should show before the first release.
  const RdpAccountant accountant;
  const RdpSnapshot snapshot = accountant.Snapshot(Delta(1e-5));
  EXPECT_EQ(snapshot.epsilon, 0.0);
  EXPECT_EQ(snapshot.optimal_order, 0);
  EXPECT_EQ(snapshot.total_steps, 0);
}

TEST(RdpAccountantTest, SnapshotMatchesGettersAfterSpend) {
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(1.0),
                                        SamplingRate(0.01), 100);
  accountant.AddGaussianSteps(NoiseMultiplier(2.0), 5);
  const RdpSnapshot snapshot = accountant.Snapshot(Delta(1e-5));
  EXPECT_DOUBLE_EQ(snapshot.epsilon, accountant.GetEpsilon(Delta(1e-5)));
  EXPECT_EQ(snapshot.optimal_order, accountant.GetOptimalOrder(Delta(1e-5)));
  EXPECT_EQ(snapshot.total_steps, 105);
  EXPECT_EQ(accountant.total_steps(), 105);
}

}  // namespace
}  // namespace geodp
