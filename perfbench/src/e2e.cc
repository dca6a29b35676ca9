// Untraced end-to-end run: times DpTrainer::Run (training workloads) or
// GeoDpPerturber::Perturb (release workload) at the pool's default thread
// count and at one thread, alternating the two, and checks every output.
//
// The throughput metrics count work per second of the process's CPU time.
// On a shared host the wall time of the same run moves with the other
// tenants' load: hypervisor steal, wake-up latency of idle virtual CPUs and
// disk queueing, each worst at N threads, where a step forks the pool
// thousands of times. CPU time leaves those out and keeps what the program
// spends, the pool's own overhead included. Wall-time throughput is logged
// on stderr, and the traced run reports the N-thread over 1-thread wall
// speed-up as pool.speedup.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "bench.h"
#include "nn/parameter.h"
#include "obs/step_observer.h"
#include "optim/dp_sgd.h"

namespace perfbench {
namespace {

// Lower bound on timed pairs, whatever --seconds says.
constexpr int kMinPairs = 3;

std::atomic<int64_t> g_canary_part_us{0};

// Contrast canary: stalls the executing thread after every pool part.
void CanaryPartHook(int /*part*/, int64_t /*duration_micros*/) {
  const auto until = Clock::now() + std::chrono::microseconds(
                                        g_canary_part_us.load());
  while (Clock::now() < until) {
  }
}

void ReportSpread(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "perfbench: %s n=%zu q1=%.6g median=%.6g q3=%.6g\n",
               what, values.size(), Percentile(values, 25), Median(values),
               Percentile(values, 75));
}

// One timed set-up: input generation (`make`) plus the start of the
// default-size pool, appended to `seconds`. The previous inputs and pool
// are torn down before the clock starts, so only construction is timed.
// Set-up runs once before the warm-up and again before every timed pair,
// so its median samples the whole run, as the throughput medians do.
template <typename Inputs, typename Make>
void TimedSetUp(const Make& make, Inputs* inputs,
                std::vector<double>* seconds) {
  { const Inputs previous = std::move(*inputs); }
  geodp::SetGlobalThreadCount(1);  // joins the previous pool's workers
  const Clock::time_point start = Clock::now();
  Inputs fresh = make();
  geodp::SetGlobalThreadCount(0);  // start the default-size pool
  seconds->push_back(SecondsSince(start));
  *inputs = std::move(fresh);
}

RunResult RunTrainingEndToEnd(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  RunResult out;

  const auto make = [&] { return MakeTrainInputs(spec, args.seed); };
  std::vector<double> setup_seconds;
  TrainInputs inputs;
  TimedSetUp(make, &inputs, &setup_seconds);

  const int default_threads = geodp::GetGlobalThreadCount();
  const double initial_loss =
      geodp::EvaluateMeanLoss(*inputs.model, inputs.train);
  const double expected_epsilon = IndependentEpsilon(spec, spec.iterations);
  const double examples =
      static_cast<double>(spec.iterations * spec.batch);

  // Untimed warm-up run; it is also the reference every timed run must
  // reproduce bit for bit.
  const TrainOutcome reference = RunTrainerOnce(
      spec, args.seed, inputs, args.work_dir, default_threads);
  ++out.attempted;
  std::string problem =
      CheckTrainOutcome(reference, initial_loss, expected_epsilon);
  if (!problem.empty()) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                 problem.c_str());
  }

  if (args.canary_part_us > 0) {
    g_canary_part_us.store(args.canary_part_us);
    geodp::SetThreadPoolPartHook(&CanaryPartHook);
  }
  // Examples per CPU second (reported) and per wall second (logged).
  std::vector<double> cpu_rate_n;
  std::vector<double> cpu_rate_1;
  std::vector<double> wall_rate_n;
  std::vector<double> wall_rate_1;
  const Clock::time_point start = Clock::now();
  for (int pair = 0;
       pair < kMinPairs || SecondsSince(start) < args.seconds; ++pair) {
    TimedSetUp(make, &inputs, &setup_seconds);
    // Alternate which thread count goes first, so drifting load on the
    // host biases neither side.
    const int order[2] = {pair % 2 == 0 ? default_threads : 1,
                          pair % 2 == 0 ? 1 : default_threads};
    for (const int threads : order) {
      const TrainOutcome outcome = RunTrainerOnce(
          spec, args.seed, inputs, args.work_dir, threads);
      ++out.attempted;
      problem = CheckTrainOutcome(outcome, initial_loss, expected_epsilon);
      if (problem.empty() && !SameTrainResult(outcome, reference)) {
        problem = "result at " + std::to_string(threads) +
                  " thread(s) differs from the reference run";
      }
      if (!problem.empty()) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: run failed: %s\n", problem.c_str());
        continue;
      }
      (threads == 1 ? cpu_rate_1 : cpu_rate_n)
          .push_back(examples / outcome.cpu_seconds);
      (threads == 1 ? wall_rate_1 : wall_rate_n)
          .push_back(examples / outcome.seconds);
    }
  }
  geodp::SetThreadPoolPartHook(nullptr);

  ReportSpread("setup_s", setup_seconds);
  ReportSpread("examples_per_cpu_s", cpu_rate_n);
  ReportSpread("examples_per_cpu_s_1t", cpu_rate_1);
  ReportSpread("wall examples_per_s", wall_rate_n);
  ReportSpread("wall examples_per_s_1t", wall_rate_1);
  const double per_release = static_cast<double>(spec.batch);
  out.Add("examples_per_cpu_s", Median(cpu_rate_n), "1/cpu_s");
  out.Add("examples_per_cpu_s_1t", Median(cpu_rate_1), "1/cpu_s");
  // Every training step makes exactly one GeoDP release.
  out.Add("releases_per_cpu_s", Median(cpu_rate_n) / per_release, "1/cpu_s");
  out.Add("releases_per_cpu_s_1t", Median(cpu_rate_1) / per_release,
          "1/cpu_s");
  out.Add("setup_s", Median(setup_seconds), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  std::fprintf(stderr,
               "perfbench: %s seed=%llu threads=%d initial_loss=%.6f "
               "final_loss=%.6f epsilon=%.6f\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               default_threads, initial_loss, reference.final_loss,
               reference.epsilon);
  return out;
}

RunResult RunReleaseEndToEnd(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  RunResult out;

  const auto make = [&] { return MakeReleaseInputs(spec, args.seed); };
  std::vector<double> setup_seconds;
  ReleaseInputs inputs;
  TimedSetUp(make, &inputs, &setup_seconds);
  const int default_threads = geodp::GetGlobalThreadCount();
  const geodp::GeoDpPerturber perturber(MakeGeoDpOptions(spec));
  const double input_norm = inputs.gradient.L2Norm();
  geodp::Rng noise = geodp::Rng(args.seed + 2).Fork();

  // Untimed warm-up release.
  {
    geodp::Rng warm = noise;
    (void)perturber.Perturb(inputs.gradient, warm);
  }

  if (args.canary_part_us > 0) {
    g_canary_part_us.store(args.canary_part_us);
    geodp::SetThreadPoolPartHook(&CanaryPartHook);
  }
  // Releases per CPU second (reported) and per wall second (logged).
  std::vector<double> cpu_rate_n;
  std::vector<double> cpu_rate_1;
  std::vector<double> wall_rate_n;
  std::vector<double> wall_rate_1;
  std::vector<double> norm_error;  // ||g^|| - ||g|| per release
  const Clock::time_point start = Clock::now();
  for (int pair = 0;
       pair < kMinPairs || SecondsSince(start) < args.seconds; ++pair) {
    TimedSetUp(make, &inputs, &setup_seconds);
    // Both releases of a pair draw the same noise: they must agree bit
    // for bit across thread counts.
    geodp::Tensor release[2];
    geodp::Rng after = noise;
    for (int k = 0; k < 2; ++k) {
      const bool default_pool = (k == 0) == (pair % 2 == 0);
      geodp::SetGlobalThreadCount(default_pool ? default_threads : 1);
      geodp::Rng rng = noise;
      const double cpu_start = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      geodp::Tensor noisy = perturber.Perturb(inputs.gradient, rng);
      const double seconds = SecondsSince(t0);
      const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
      (default_pool ? cpu_rate_n : cpu_rate_1).push_back(1.0 / cpu_seconds);
      (default_pool ? wall_rate_n : wall_rate_1).push_back(1.0 / seconds);
      release[default_pool ? 0 : 1] = std::move(noisy);
      after = rng;
    }
    noise = after;
    out.attempted += 2;
    const char* problem = nullptr;
    for (const geodp::Tensor& r : release) {
      if (r.numel() != spec.release_dim || !AllFinite(r)) {
        problem = "release is not finite or has the wrong dimension";
      }
    }
    if (problem == nullptr && !BitEqual(release[0], release[1])) {
      problem = "release differs across thread counts";
    }
    if (problem != nullptr) {
      out.failed += 2;
      std::fprintf(stderr, "perfbench: %s\n", problem);
    }
    norm_error.push_back(release[0].L2Norm() - input_norm);
  }
  geodp::SetThreadPoolPartHook(nullptr);

  // The magnitude noise is N(0, s^2) with s = Stddevs(d).magnitude, and
  // the direction noise preserves the norm, so ||g^|| - ||g|| must look
  // like that normal. Accept the sample stddev within five standard
  // errors of s (chi-square, normal approximation) and the mean within
  // five standard errors of 0.
  const double expected_sd = perturber.Stddevs(spec.release_dim).magnitude;
  const double n = static_cast<double>(norm_error.size());
  double mean = 0.0;
  for (const double e : norm_error) mean += e;
  mean /= n;
  double var = 0.0;
  for (const double e : norm_error) var += (e - mean) * (e - mean);
  const double sd = std::sqrt(var / (n - 1.0));
  const bool sd_ok =
      std::fabs(sd / expected_sd - 1.0) <= 5.0 / std::sqrt(2.0 * (n - 1.0));
  const bool mean_ok = std::fabs(mean) <= 5.0 * expected_sd / std::sqrt(n);
  std::fprintf(stderr,
               "perfbench: norm error over %zu releases: mean=%.4g sd=%.4g "
               "expected sd=%.4g\n",
               norm_error.size(), mean, sd, expected_sd);
  if (!sd_ok || !mean_ok) {
    std::fprintf(stderr,
                 "perfbench: magnitude noise does not match its stddev\n");
    out.failed = out.attempted;
  }

  ReportSpread("setup_s", setup_seconds);
  ReportSpread("releases_per_cpu_s", cpu_rate_n);
  ReportSpread("releases_per_cpu_s_1t", cpu_rate_1);
  ReportSpread("wall releases_per_s", wall_rate_n);
  ReportSpread("wall releases_per_s_1t", wall_rate_1);
  // A release privatizes the sum of one batch of B examples.
  const double per_release = static_cast<double>(spec.batch);
  out.Add("examples_per_cpu_s", Median(cpu_rate_n) * per_release, "1/cpu_s");
  out.Add("examples_per_cpu_s_1t", Median(cpu_rate_1) * per_release,
          "1/cpu_s");
  out.Add("releases_per_cpu_s", Median(cpu_rate_n), "1/cpu_s");
  out.Add("releases_per_cpu_s_1t", Median(cpu_rate_1), "1/cpu_s");
  out.Add("setup_s", Median(setup_seconds), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  return out;
}

}  // namespace

TrainOutcome RunTrainerOnce(const WorkloadSpec& spec, uint64_t seed,
                            TrainInputs& inputs, const std::string& work_dir,
                            int threads) {
  geodp::SetGlobalThreadCount(threads);
  ResetModel(inputs);
  geodp::TrainerOptions options = MakeTrainerOptions(spec, seed);
  std::unique_ptr<geodp::JsonlStepWriter> writer;
  TrainOutcome outcome;
  if (spec.durable) {
    const std::string ckpt_dir = work_dir + "/ckpt";
    if (!ResetDirectory(ckpt_dir)) {
      outcome.error = "cannot create " + ckpt_dir;
      return outcome;
    }
    writer = std::make_unique<geodp::JsonlStepWriter>(work_dir +
                                                      "/steps.jsonl");
    options.step_observer = writer.get();
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every = 1;
  }
  geodp::DpTrainer trainer(inputs.model.get(), &inputs.train, &inputs.test,
                           options);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  geodp::StatusOr<geodp::TrainingResult> run = trainer.Run();
  outcome.seconds = SecondsSince(start);
  outcome.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  if (writer != nullptr && !writer->Close().ok()) {
    outcome.error = "telemetry: " + writer->status().ToString();
    return outcome;
  }
  if (!run.ok()) {
    outcome.error = run.status().ToString();
    return outcome;
  }
  const geodp::TrainingResult& result = run.value();
  outcome.ok = true;
  outcome.params = geodp::FlattenValues(inputs.model->Parameters());
  outcome.final_loss = result.final_train_loss;
  outcome.epsilon = result.epsilon;
  for (const double loss : result.loss_history) {
    outcome.history_finite = outcome.history_finite && std::isfinite(loss);
  }
  return outcome;
}

std::string CheckTrainOutcome(const TrainOutcome& outcome,
                              double initial_loss, double expected_epsilon) {
  if (!outcome.ok) return outcome.error;
  if (!std::isfinite(outcome.final_loss) || !outcome.history_finite ||
      !AllFinite(outcome.params)) {
    return "non-finite loss or parameters";
  }
  if (!(outcome.final_loss < initial_loss)) {
    return "final loss " + std::to_string(outcome.final_loss) +
           " is not below the initial loss " + std::to_string(initial_loss);
  }
  if (std::fabs(outcome.epsilon - expected_epsilon) >
      1e-9 * expected_epsilon) {
    return "epsilon " + std::to_string(outcome.epsilon) +
           " differs from the independent accountant's " +
           std::to_string(expected_epsilon);
  }
  return "";
}

bool SameTrainResult(const TrainOutcome& a, const TrainOutcome& b) {
  return a.ok && b.ok && BitEqual(a.params, b.params) &&
         SameBits(a.final_loss, b.final_loss) &&
         SameBits(a.epsilon, b.epsilon);
}

RunResult RunEndToEnd(const RunArgs& args) {
  RunResult out = args.spec->training ? RunTrainingEndToEnd(args)
                                      : RunReleaseEndToEnd(args);
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
