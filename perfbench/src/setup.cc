// Workload table, input generation and small shared helpers.

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "base/rng.h"
#include "base/units.h"
#include "bench.h"
#include "data/synthetic_images.h"
#include "dp/rdp_accountant.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "nn/parameter.h"

namespace perfbench {
namespace {

// d of the release workload: large enough that the gradient (4 MB) and
// its angles (8 MB) overflow the L2 cache.
constexpr int64_t kReleaseDim = int64_t{1} << 20;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {.name = "train_cnn",
       .model = ModelKind::kCnn,
       .batch = 128,
       .iterations = 10},
      {.name = "geodp_release",
       .training = false,
       .batch = 256,
       .release_dim = kReleaseDim},
      {.name = "train_lr_durable",
       .model = ModelKind::kLogisticRegression,
       .batch = 256,
       .iterations = 30,
       .durable = true},
  };
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

// Seeds follow geodp_cli train: data from `seed`, model init from seed+1,
// the trainer from seed+2.
TrainInputs MakeTrainInputs(const WorkloadSpec& spec, uint64_t seed) {
  TrainInputs inputs;
  geodp::SyntheticImageOptions data_options;
  data_options.num_examples = kTrainExamples + kTestExamples;
  data_options.seed = seed;
  inputs.train = geodp::MakeMnistLike(data_options);
  inputs.test = inputs.train.SplitTail(kTestExamples);

  geodp::Rng rng(seed + 1);
  const geodp::Tensor& image = inputs.train.image(0);
  switch (spec.model) {
    case ModelKind::kCnn: {
      geodp::CnnConfig config;
      config.in_channels = image.dim(0);
      config.image_size = image.dim(1);
      inputs.model = geodp::MakeCnn(config, rng);
      break;
    }
    case ModelKind::kLogisticRegression:
      inputs.model = geodp::MakeLogisticRegression(image.numel(), 10, rng);
      break;
  }
  inputs.initial_params = geodp::FlattenValues(inputs.model->Parameters());
  return inputs;
}

ReleaseInputs MakeReleaseInputs(const WorkloadSpec& spec, uint64_t seed) {
  geodp::Rng rng(seed);
  ReleaseInputs inputs;
  inputs.gradient = geodp::Tensor::Randn({spec.release_dim}, rng);
  // An averaged clipped gradient has norm at most C; averaging partly
  // cancels per-sample directions, so draw its norm from [0.3C, 0.9C].
  const double norm = kClip * rng.Uniform(0.3, 0.9);
  inputs.gradient.ScaleInPlace(
      static_cast<float>(norm / inputs.gradient.L2Norm()));
  return inputs;
}

geodp::TrainerOptions MakeTrainerOptions(const WorkloadSpec& spec,
                                         uint64_t seed) {
  geodp::TrainerOptions options;
  options.method = geodp::PerturbationMethod::kGeoDp;
  options.batch_size = spec.batch;
  options.iterations = spec.iterations;
  options.learning_rate = kLearningRate;
  options.clip_threshold = kClip;
  options.noise_multiplier = kSigma;
  options.beta = kBeta;
  options.delta = kDelta;
  options.seed = seed + 2;
  options.record_loss_every = std::max<int64_t>(spec.iterations / 10, 1);
  return options;
}

geodp::PerturbationOptions MakePerturbationOptions(const WorkloadSpec& spec) {
  geodp::PerturbationOptions base;
  base.clip_threshold = kClip;
  base.batch_size = spec.batch;
  base.noise_multiplier = kSigma;
  return base;
}

geodp::GeoDpOptions MakeGeoDpOptions(const WorkloadSpec& spec) {
  geodp::GeoDpOptions options;
  options.base = MakePerturbationOptions(spec);
  options.beta = kBeta;
  return options;
}

void ResetModel(TrainInputs& inputs) {
  geodp::SetValuesFromFlat(inputs.model->Parameters(), inputs.initial_params);
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool BitEqual(const geodp::Tensor& a, const geodp::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool AllFinite(const geodp::Tensor& t) {
  const float* data = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

double IndependentEpsilon(const WorkloadSpec& spec, int64_t steps) {
  geodp::RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(
      geodp::NoiseMultiplier(kSigma),
      geodp::SamplingRate(static_cast<double>(spec.batch) /
                          static_cast<double>(kTrainExamples)),
      steps);
  return accountant.GetEpsilon(geodp::Delta(kDelta));
}

bool ResetDirectory(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
  return std::filesystem::create_directories(path, error) && !error;
}

void DirectoryFootprint(const std::string& path, int64_t* files,
                        int64_t* bytes) {
  *files = 0;
  *bytes = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, error)) {
    if (!entry.is_regular_file()) continue;
    ++*files;
    *bytes += static_cast<int64_t>(entry.file_size());
  }
}

int64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? -1 : static_cast<int64_t>(size);
}

}  // namespace perfbench
