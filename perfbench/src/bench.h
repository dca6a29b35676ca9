// Shared declarations of the end-to-end benchmark: workload specs, the
// generated inputs, the result record printed as the final JSON line, and
// small statistics helpers.

#ifndef GEODP_PERFBENCH_BENCH_H_
#define GEODP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/perturbation.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "optim/trainer.h"
#include "tensor/tensor.h"

namespace perfbench {

enum class ModelKind { kCnn, kLogisticRegression };

/// One named workload. Training workloads run DpTrainer::Run on a
/// synthetic dataset; the release workload runs GeoDpPerturber::Perturb
/// on one generated averaged clipped gradient.
struct WorkloadSpec {
  std::string name;
  bool training = true;
  ModelKind model = ModelKind::kCnn;
  int64_t batch = 128;         // B (also the release's batch size)
  int64_t iterations = 10;     // steps per timed DpTrainer::Run
  bool durable = false;        // JSONL telemetry + checkpoint every attempt
  int64_t release_dim = 0;     // d of the release workload
};

/// Looks up a workload by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

// Parameters every workload shares.
inline constexpr int64_t kTrainExamples = 1000;
inline constexpr int64_t kTestExamples = 200;
inline constexpr double kSigma = 1.0;
inline constexpr double kClip = 0.1;
inline constexpr double kBeta = 0.01;
inline constexpr double kLearningRate = 2.0;
inline constexpr double kDelta = 1e-5;

/// Generated inputs of a training workload.
struct TrainInputs {
  geodp::InMemoryDataset train;
  geodp::InMemoryDataset test;
  std::unique_ptr<geodp::Sequential> model;
  geodp::Tensor initial_params;  // flat values every run starts from
};

/// Generated inputs of the release workload.
struct ReleaseInputs {
  geodp::Tensor gradient;  // averaged clipped gradient, norm <= C
};

TrainInputs MakeTrainInputs(const WorkloadSpec& spec, uint64_t seed);
ReleaseInputs MakeReleaseInputs(const WorkloadSpec& spec, uint64_t seed);

/// Trainer options of a workload (checkpointing and telemetry sinks are
/// attached by the caller).
geodp::TrainerOptions MakeTrainerOptions(const WorkloadSpec& spec,
                                         uint64_t seed);
geodp::PerturbationOptions MakePerturbationOptions(const WorkloadSpec& spec);
geodp::GeoDpOptions MakeGeoDpOptions(const WorkloadSpec& spec);

/// Restores the model to the workload's initial parameters.
void ResetModel(TrainInputs& inputs);

/// Command-line arguments of one benchmark run.
struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Benchmark-only contrast canary: busy-wait this many microseconds
  // after every thread-pool part (0 = off).
  int64_t canary_part_us = 0;
  std::string work_dir;   // scratch space for checkpoints and telemetry
  std::string trace_out;  // traced run: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

RunResult RunEndToEnd(const RunArgs& args);
RunResult RunTraced(const RunArgs& args);

// -- Timed DpTrainer::Run, shared by both modes --------------------------

/// One DpTrainer::Run and what the output checks need from it.
struct TrainOutcome {
  bool ok = false;
  std::string error;
  geodp::Tensor params;  // final flat parameters
  double final_loss = 0.0;
  double epsilon = 0.0;
  bool history_finite = true;
  double seconds = 0.0;      // wall time of Run() alone
  double cpu_seconds = 0.0;  // CPU time of the process (all threads) in Run()
};

/// Runs DpTrainer::Run from the workload's initial parameters on a pool
/// of `threads`. Durable workloads get a JSONL step writer at
/// work_dir/steps.jsonl and checkpoint every attempt into a fresh
/// work_dir/ckpt.
TrainOutcome RunTrainerOnce(const WorkloadSpec& spec, uint64_t seed,
                            TrainInputs& inputs, const std::string& work_dir,
                            int threads);

/// Checks one run on its own: OK status, finite loss and parameters,
/// final loss below `initial_loss`, and epsilon equal to an independent
/// accountant's. Returns an empty string when it passes.
std::string CheckTrainOutcome(const TrainOutcome& outcome,
                              double initial_loss, double expected_epsilon);

/// Thread-count determinism: runs of one seed, at any thread count, give
/// bit-identical parameters, final loss and epsilon.
bool SameTrainResult(const TrainOutcome& a, const TrainOutcome& b);

// -- Helpers shared by both modes --------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time this process has used, all threads, in seconds. The kernel
/// leaves out time a hypervisor took the CPU away (steal), and no time is
/// counted while a thread sleeps or waits for the disk.
double ProcessCpuSeconds();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double Percentile(std::vector<double> values, double p);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// True when both doubles have identical bits.
bool SameBits(double a, double b);
/// True when both tensors have the same shape and identical bits.
bool BitEqual(const geodp::Tensor& a, const geodp::Tensor& b);
/// True when every element is finite.
bool AllFinite(const geodp::Tensor& t);

/// Epsilon of `steps` subsampled Gaussian releases computed by a fresh
/// accountant, independent of the trainer's per-step accounting.
double IndependentEpsilon(const WorkloadSpec& spec, int64_t steps);

/// Creates (or empties) a directory; returns false on failure.
bool ResetDirectory(const std::string& path);
/// Number of regular files and their total size under `path`.
void DirectoryFootprint(const std::string& path, int64_t* files,
                        int64_t* bytes);
/// Size of a file in bytes (-1 when missing).
int64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // GEODP_PERFBENCH_BENCH_H_
