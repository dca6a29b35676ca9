// Traced run. The benchmark's own step driver calls each library module's
// public functions in the order DpTrainer::Run uses them and records a
// span around every call; standalone probes then time single calls on the
// step's real inputs, and a thread-pool part hook counts pool work. The
// per-layer metrics come from these spans, probes and counters. Each
// driver pass alternates with untraced DpTrainer::Run calls of the same
// seed at one thread and at the pool's default size, which give the pool's
// speed-up, the tracing overhead and the driver-equivalence check.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "base/io/file_io.h"
#include "base/io/retry.h"
#include "base/thread_pool.h"
#include "base/units.h"
#include "bench.h"
#include "ckpt/checkpoint.h"
#include "clip/clipping.h"
#include "core/spherical.h"
#include "data/dataloader.h"
#include "dp/privacy_ledger.h"
#include "dp/rdp_accountant.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/step_observer.h"
#include "optim/adaptive_beta.h"
#include "optim/dp_adam.h"
#include "optim/dp_sgd.h"
#include "optim/geodp_sgd.h"
#include "optim/ghost_grad.h"
#include "optim/techniques.h"

namespace perfbench {
namespace {

// pool.speedup: wall-time throughput of untraced runs at the pool's default
// size over that at one thread; below 1 the pool slows the workload down.
double PoolSpeedup(const std::vector<double>& default_rate,
                   const std::vector<double>& single_rate) {
  return Median(default_rate) / Median(single_rate);
}

// Driver passes stop after this share of --seconds (at least kMinPasses),
// leaving the rest to the probes.
constexpr double kPassShare = 0.5;
constexpr int kMinPasses = 2;
constexpr int kMaxPasses = 50;
// Time budget of each probe as a share of --seconds.
constexpr double kProbeShare = 0.04;
constexpr int kMinProbeReps = 3;
constexpr int kMaxProbeReps = 400;
// Releases per driver pass on the release workload.
constexpr int kReleasesPerPass = 8;

// Every per-layer metric in output order, with its unit. A layer that a
// workload does not exercise does no work there and reads 0.
constexpr std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"optim.step_ms.p50", "ms"},      {"optim.step_ms.p99", "ms"},
    {"optim.private_grad_ms", "ms"},  {"optim.apply_us", "us"},
    {"data.next_batch_us", "us"},     {"nn.sample_fwd_bwd_us", "us"},
    {"nn.batch_fwd_bwd_ms", "ms"},    {"nn.conv2d.fwd_us", "us"},
    {"nn.conv2d.bwd_us", "us"},       {"nn.linear.fwd_us", "us"},
    {"nn.linear.bwd_us", "us"},       {"nn.share_of_step", "share"},
    {"clip.accumulate_ms", "ms"},     {"clip.nonfinite_share", "share"},
    {"core.perturb_ms", "ms"},        {"core.to_spherical_ms", "ms"},
    {"core.perturb_spherical_ms", "ms"},
    {"core.to_cartesian_ms", "ms"},   {"core.dp_perturb_ms", "ms"},
    {"core.geodp_over_dp", "ratio"},  {"dp.account_us", "us"},
    {"dp.snapshot_us", "us"},         {"pool.parts_per_step", "count"},
    {"pool.mean_part_us", "us"},      {"pool.utilization", "share"},
    {"pool.speedup", "ratio"},
    {"ckpt.save_ms.p50", "ms"},       {"ckpt.save_ms.p99", "ms"},
    {"ckpt.load_ms", "ms"},           {"ckpt.bytes", "bytes"},
    {"ckpt.dir_files", "count"},      {"ckpt.dir_bytes", "bytes"},
    {"obs.on_step_us", "us"},         {"obs.bytes_per_step", "bytes"},
    {"trace.overhead_share", "share"}, {"trace.coverage", "share"},
    {"trace.driver_matches", "count"},
};

using Values = std::map<std::string, double>;

// -- Spans ---------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     // index of the enclosing span, -1 at the root
  int64_t step = -1;   // step id, unique across passes; -1 outside steps
};

// Spans of the traced run, kept in memory and written out at exit.
class SpanRecorder {
 public:
  int Open(const char* name, int64_t step) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.step = step;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(Ms(span));
    }
    return out;
  }

  /// Share of the total duration of the spans called `name` that their
  /// child spans' self times account for.
  double ChildCoverage(const std::string& name) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] += Ms(span);
      }
    }
    double total = 0.0;
    double covered = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.parent < 0 ||
          name != spans_[static_cast<size_t>(span.parent)].name) {
        continue;
      }
      covered += Ms(span) - child_ms[i];  // the child's self time
    }
    for (const Span& span : spans_) {
      if (name == span.name) total += Ms(span);
    }
    return total > 0.0 ? covered / total : 0.0;
  }

  bool Write(const std::string& path, const std::string& workload,
             uint64_t seed) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d, \"step\": %lld}",
                   i == 0 ? "" : ",", i, span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - origin) / 1e3,
                   span.parent, static_cast<long long>(span.step));
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  static double Ms(const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t step)
      : recorder_(recorder), id_(recorder.Open(name, step)) {}
  ~ScopedSpan() { recorder_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

// -- Pool counters -------------------------------------------------------

std::atomic<int64_t> g_pool_parts{0};
std::atomic<int64_t> g_pool_part_us{0};

void CountingPartHook(int /*part*/, int64_t duration_micros) {
  g_pool_parts.fetch_add(1, std::memory_order_relaxed);
  g_pool_part_us.fetch_add(duration_micros, std::memory_order_relaxed);
}

// Pool work of every driver step.
struct PoolStats {
  std::vector<int64_t> step_parts;
  int64_t part_us = 0;
  double step_seconds = 0.0;
};

// Counts the pool parts of one step: construct at the start of the step,
// call Finish at its end.
class StepPoolCounter {
 public:
  StepPoolCounter()
      : parts_(g_pool_parts.load()), us_(g_pool_part_us.load()),
        start_(Clock::now()) {}
  void Finish(PoolStats& stats) const {
    stats.step_parts.push_back(g_pool_parts.load() - parts_);
    stats.part_us += g_pool_part_us.load() - us_;
    stats.step_seconds += SecondsSince(start_);
  }

 private:
  int64_t parts_;
  int64_t us_;
  Clock::time_point start_;
};

// -- Probes --------------------------------------------------------------

// Calls fn() repeatedly for about `budget_s` seconds and returns each
// call's duration in microseconds.
template <typename Fn>
std::vector<double> Probe(double budget_s, Fn&& fn) {
  std::vector<double> micros;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(micros.size()) < kMinProbeReps ||
         (SecondsSince(start) < budget_s &&
          static_cast<int>(micros.size()) < kMaxProbeReps)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    micros.push_back(SecondsSince(t0) * 1e6);
  }
  return micros;
}

// -- Training step driver ------------------------------------------------

struct DriverResult {
  bool ok = true;
  std::string error;
  geodp::Tensor params;
  double final_loss = 0.0;
  double epsilon = 0.0;
  double seconds = 0.0;
  int64_t samples = 0;
  int64_t nonfinite = 0;
  // Inputs of the last step, for the probes.
  std::vector<int64_t> last_batch;
  geodp::Tensor last_clipped;
};

// The step record the trainer hands its observer, built from public state.
geodp::StepRecord MakeStepRecord(const geodp::PrivateBatchGradient& grads,
                                 const geodp::Perturber& perturber,
                                 const geodp::RdpAccountant& accountant,
                                 int64_t step, int64_t flat_dim) {
  geodp::StepRecord record;
  record.step = step;
  record.attempt = step;
  record.batch_size = grads.batch_size;
  record.nonfinite_skipped = grads.nonfinite_skipped;
  record.mean_loss = grads.mean_loss;
  record.raw_grad_norm = grads.averaged_raw.L2Norm();
  record.clipped_grad_norm = grads.averaged_clipped.L2Norm();
  int64_t clipped = 0;
  for (const double norm : grads.sample_grad_norms) {
    if (norm > kClip) ++clipped;
  }
  record.clip_fraction =
      grads.sample_grad_norms.empty()
          ? 0.0
          : static_cast<double>(clipped) /
                static_cast<double>(grads.sample_grad_norms.size());
  const geodp::NoiseStddevs stddevs = perturber.Stddevs(flat_dim);
  record.magnitude_noise_stddev = stddevs.magnitude;
  record.direction_noise_stddev = stddevs.direction;
  record.beta = kBeta;
  record.sur_accepted = true;
  const geodp::RdpSnapshot snapshot =
      accountant.Snapshot(geodp::Delta(kDelta));
  record.epsilon = snapshot.epsilon;
  record.rdp_order = snapshot.optimal_order;
  record.accounted_steps = snapshot.total_steps;
  return record;
}

// One pass of the step driver: seeds itself as DpTrainer::Run does
// (Fork() for the noise stream, Next() for each sampler) and runs every
// step as the same sequence of public calls, one span per call.
DriverResult RunTrainingDriver(const WorkloadSpec& spec, uint64_t seed,
                               TrainInputs& inputs,
                               const std::string& work_dir,
                               int64_t first_step_id, SpanRecorder& spans,
                               PoolStats& pool) {
  DriverResult out;
  ResetModel(inputs);
  const Clock::time_point start = Clock::now();
  const geodp::TrainerOptions options = MakeTrainerOptions(spec, seed);
  const bool ghost = options.clip_mode == "ghost";
  geodp::Sequential& model = *inputs.model;
  const int64_t n = inputs.train.size();
  const double rate =
      static_cast<double>(options.batch_size) / static_cast<double>(n);

  geodp::Rng rng(options.seed);
  geodp::Rng noise_rng = rng.Fork();
  const std::vector<geodp::Parameter*> params = model.Parameters();
  const int64_t flat_dim = geodp::TotalParameterCount(params);
  const std::unique_ptr<geodp::Perturber> perturber =
      geodp::MakePerturberForMethod(options.method,
                                    MakePerturbationOptions(spec),
                                    options.beta, options.angle_handling);
  const std::unique_ptr<geodp::Clipper> clipper = geodp::MakeClipper(
      options.clipper, geodp::ClipThreshold(options.clip_threshold));
  // The trainer builds all three samplers (each draws a seed from `rng`),
  // Adam and the adaptive-beta controller whatever the options, and every
  // checkpoint holds their state.
  geodp::BatchSampler sampler(n, options.batch_size, rng.Next());
  geodp::PoissonSampler poisson(n, rate, rng.Next());
  geodp::ImportanceSampler importance(n, options.batch_size, rng.Next());
  geodp::AdaptiveBetaController beta_controller(options.adaptive_beta_floor,
                                                1.0);
  geodp::FlatAdam adam(flat_dim, geodp::AdamOptions{
                                     .learning_rate = options.learning_rate});
  geodp::SoftmaxCrossEntropy loss;
  geodp::RdpAccountant accountant;
  geodp::PrivacyLedger ledger;
  geodp::FlightRecorder& recorder = geodp::FlightRecorder::Global();
  std::vector<int64_t> loss_iterations;
  std::vector<double> loss_history;

  const std::string ckpt_dir = work_dir + "/driver_ckpt";
  std::unique_ptr<geodp::JsonlStepWriter> writer;
  if (spec.durable) {
    if (!ResetDirectory(ckpt_dir)) {
      out.ok = false;
      out.error = "cannot create " + ckpt_dir;
      return out;
    }
    writer = std::make_unique<geodp::JsonlStepWriter>(work_dir +
                                                      "/driver_steps.jsonl");
  }

  for (int64_t t = 0; t < options.iterations; ++t) {
    const int64_t step_id = first_step_id + t;
    const StepPoolCounter counter;
    {
      const ScopedSpan step_span(spans, "step", step_id);
      clipper->OnStep(t);
      std::vector<int64_t> batch;
      {
        const ScopedSpan span(spans, "data.next_batch", step_id);
        batch = sampler.NextBatch();
      }
      geodp::PrivateBatchGradient grads;
      {
        const ScopedSpan span(spans, "optim.private_grad", step_id);
        grads = ghost ? geodp::ComputeGhostClippedGradients(
                            model, loss, inputs.train, batch, *clipper,
                            /*record_sample_norms=*/spec.durable)
                      : geodp::ComputePerSampleGradients(
                            model, loss, inputs.train, batch, *clipper,
                            /*record_sample_norms=*/spec.durable);
      }
      out.samples += static_cast<int64_t>(batch.size());
      out.nonfinite += grads.nonfinite_skipped;
      geodp::Tensor noisy;
      {
        const ScopedSpan span(spans, "core.perturb", step_id);
        noisy = perturber->Perturb(grads.averaged_clipped, noise_rng);
      }
      {
        const ScopedSpan span(spans, "dp.account", step_id);
        accountant.AddSubsampledGaussianSteps(
            geodp::NoiseMultiplier(options.noise_multiplier),
            geodp::SamplingRate(rate), 1);
        ledger.RecordSubsampledGaussianCoalesced(
            geodp::NoiseMultiplier(options.noise_multiplier),
            geodp::SamplingRate(rate), "dp-sgd step");
      }
      {
        const ScopedSpan span(spans, "optim.apply", step_id);
        geodp::ApplyFlatUpdate(params, noisy, options.learning_rate);
      }
      if (t % options.record_loss_every == 0 || t == options.iterations - 1) {
        loss_iterations.push_back(t);
        loss_history.push_back(grads.mean_loss);
      }
      recorder.Record(geodp::FlightEventKind::kStepMilestone, t + 1,
                      "accepted=" + std::to_string(t + 1));
      if (spec.durable) {
        {
          const ScopedSpan span(spans, "obs.on_step", step_id);
          writer->OnStep(
              MakeStepRecord(grads, *perturber, accountant, t, flat_dim));
        }
        const std::string path =
            ckpt_dir + "/" + geodp::CheckpointFileName(t + 1);
        geodp::Status saved;
        {
          const ScopedSpan span(spans, "ckpt.save", step_id);
          geodp::TrainingCheckpoint ckpt;
          ckpt.next_attempt = t + 1;
          ckpt.accepted_updates = t + 1;
          ckpt.loss_iterations = loss_iterations;
          ckpt.loss_history = loss_history;
          ckpt.current_beta = options.beta;
          for (const geodp::Parameter* param : params) {
            ckpt.param_names.push_back(param->name);
            ckpt.param_values.push_back(param->value);
          }
          ckpt.noise_rng = noise_rng.ExportState();
          ckpt.uniform_sampler = sampler.ExportState();
          ckpt.poisson_rng = poisson.ExportState();
          ckpt.importance_sampler = importance.ExportState();
          ckpt.adam = adam.ExportState();
          ckpt.accountant_orders = accountant.orders();
          ckpt.accountant_rdp = accountant.cumulative_rdp();
          ckpt.accountant_steps = accountant.total_steps();
          ckpt.ledger_events = ledger.events();
          ckpt.beta_controller = beta_controller.ExportState();
          ckpt.options_fingerprint = "perfbench-driver|" + spec.name;
          saved = geodp::SaveTrainingCheckpoint(ckpt, path);
        }
        if (!saved.ok()) {
          out.ok = false;
          out.error = saved.ToString();
        }
        recorder.Record(geodp::FlightEventKind::kCheckpointWrite, t + 1, path);
        {
          const ScopedSpan span(spans, "ckpt.prune", step_id);
          (void)geodp::PruneOldCheckpoints(ckpt_dir, options.checkpoint_keep);
        }
        {
          const ScopedSpan span(spans, "obs.postmortem", step_id);
          geodp::PostmortemInfo info;
          info.reason = "checkpoint";
          info.detail = path;
          info.step = t + 1;
          info.attempt = t + 1;
          info.epsilon = accountant.Snapshot(geodp::Delta(kDelta)).epsilon;
          (void)geodp::AtomicWriteFile(
              ckpt_dir + "/" + geodp::PostmortemFileName(t + 1),
              geodp::PostmortemJson(info, recorder.Snapshot()),
              geodp::RetryPolicy{}, "obs.postmortem");
        }
      }
      if (t == options.iterations - 1) {
        out.last_batch = batch;
        out.last_clipped = grads.averaged_clipped;
      }
    }
    counter.Finish(pool);
  }
  {
    const ScopedSpan span(spans, "optim.final_eval", -1);
    out.final_loss = geodp::EvaluateMeanLoss(model, inputs.train);
    (void)geodp::EvaluateAccuracy(model, inputs.test);
  }
  out.seconds = SecondsSince(start);
  if (writer != nullptr && !writer->Close().ok()) {
    out.ok = false;
    out.error = "telemetry: " + writer->status().ToString();
  }
  out.params = geodp::FlattenValues(params);
  out.epsilon = accountant.GetEpsilon(geodp::Delta(kDelta));
  return out;
}

// Per-layer-kind forward and backward time (µs) of one example, found by
// walking Sequential::layer(i) exactly as Sequential::Forward/Backward do.
struct LayerKindTimes {
  std::map<std::string, std::vector<double>> fwd_us;
  std::map<std::string, std::vector<double>> bwd_us;
};

std::string LayerKind(const geodp::Layer& layer) {
  const std::string name = layer.name();
  if (name == "Conv2d") return "conv2d";
  if (name == "Linear") return "linear";
  return "";
}

LayerKindTimes ProbeLayerKinds(TrainInputs& inputs, int64_t index,
                               double budget_s) {
  geodp::Sequential& model = *inputs.model;
  const std::vector<geodp::Parameter*> params = model.Parameters();
  const geodp::Tensor x = inputs.train.StackImages({index});
  const std::vector<int64_t> y = {inputs.train.label(index)};
  geodp::SoftmaxCrossEntropy loss;
  LayerKindTimes times;
  const size_t layers = model.size();
  (void)Probe(budget_s, [&] {
    std::map<std::string, double> fwd;
    std::map<std::string, double> bwd;
    geodp::ZeroGradients(params);
    geodp::Tensor activation = x;
    for (size_t i = 0; i < layers; ++i) {
      const Clock::time_point t0 = Clock::now();
      activation = model.layer(i).Forward(activation);
      fwd[LayerKind(model.layer(i))] += SecondsSince(t0) * 1e6;
    }
    (void)loss.Forward(activation, y);
    geodp::Tensor grad = loss.Backward();
    for (size_t i = layers; i-- > 0;) {
      const Clock::time_point t0 = Clock::now();
      grad = model.layer(i).Backward(grad);
      bwd[LayerKind(model.layer(i))] += SecondsSince(t0) * 1e6;
    }
    for (const char* kind : {"conv2d", "linear"}) {
      times.fwd_us[kind].push_back(fwd[kind]);
      times.bwd_us[kind].push_back(bwd[kind]);
    }
  });
  geodp::ZeroGradients(params);
  return times;
}

// The stages of one GeoDP release (Perturb = ToSpherical, then
// PerturbSpherical, then ToCartesian on the noisy coordinates) and the DP
// release of the same gradient, each timed on its own.
void ProbeCore(const WorkloadSpec& spec, const geodp::Tensor& gradient,
               uint64_t seed, double budget, Values& values) {
  const geodp::GeoDpPerturber geodp_perturber(MakeGeoDpOptions(spec));
  const geodp::DpPerturber dp_perturber(MakePerturbationOptions(spec));
  geodp::Rng rng(seed + 3);
  const geodp::SphericalCoordinates coords = geodp::ToSpherical(gradient);
  const geodp::SphericalCoordinates noisy =
      geodp_perturber.PerturbSpherical(coords, rng);
  const std::vector<double> to_sph_us =
      Probe(budget, [&] { (void)geodp::ToSpherical(gradient); });
  const std::vector<double> angles_us = Probe(
      budget, [&] { (void)geodp_perturber.PerturbSpherical(coords, rng); });
  const std::vector<double> to_cart_us =
      Probe(budget, [&] { (void)geodp::ToCartesian(noisy); });
  const std::vector<double> geo_us =
      Probe(budget, [&] { (void)geodp_perturber.Perturb(gradient, rng); });
  const std::vector<double> dp_us =
      Probe(budget, [&] { (void)dp_perturber.Perturb(gradient, rng); });
  values["core.to_spherical_ms"] = Median(to_sph_us) / 1e3;
  values["core.perturb_spherical_ms"] = Median(angles_us) / 1e3;
  values["core.to_cartesian_ms"] = Median(to_cart_us) / 1e3;
  values["core.dp_perturb_ms"] = Median(dp_us) / 1e3;
  values["core.geodp_over_dp"] = Median(geo_us) / Median(dp_us);
}

// -- Traced runs ---------------------------------------------------------

void AddPoolMetrics(RunResult& out, Values& values, const PoolStats& pool,
                    int threads) {
  int64_t total_parts = 0;
  bool repeats = true;
  for (const int64_t parts : pool.step_parts) {
    total_parts += parts;
    repeats = repeats && parts == pool.step_parts.front();
  }
  if (!repeats) {
    // The chunk structure depends only on range, grain and thread count
    // (base/thread_pool.h), so identical steps must fork identically.
    std::fprintf(stderr,
                 "perfbench: pool parts differ between identical steps\n");
    out.correct = false;
  }
  const double part_us = static_cast<double>(pool.part_us);
  values["pool.parts_per_step"] =
      pool.step_parts.empty() ? 0.0
                              : static_cast<double>(pool.step_parts.front());
  values["pool.mean_part_us"] =
      total_parts > 0 ? part_us / static_cast<double>(total_parts) : 0.0;
  values["pool.utilization"] =
      pool.step_seconds > 0.0
          ? part_us / (pool.step_seconds * 1e6 * static_cast<double>(threads))
          : 0.0;
}

void AddTraceMetrics(Values& values, const std::vector<double>& reference_rate,
                     const std::vector<double>& driver_rate,
                     const SpanRecorder& spans, bool driver_matches) {
  values["trace.overhead_share"] =
      1.0 - Median(driver_rate) / Median(reference_rate);
  values["trace.coverage"] = spans.ChildCoverage("step");
  values["trace.driver_matches"] = driver_matches ? 1.0 : 0.0;
}

void RunTrainingTraced(const RunArgs& args, SpanRecorder& spans,
                       RunResult& out, Values& values) {
  const WorkloadSpec& spec = *args.spec;
  TrainInputs inputs = MakeTrainInputs(spec, args.seed);
  geodp::SetGlobalThreadCount(0);
  const int threads = geodp::GetGlobalThreadCount();
  const double initial_loss =
      geodp::EvaluateMeanLoss(*inputs.model, inputs.train);
  const double expected_epsilon = IndependentEpsilon(spec, spec.iterations);
  const double examples = static_cast<double>(spec.iterations * spec.batch);

  std::vector<double> reference_rate;
  std::vector<double> single_rate;
  std::vector<double> driver_rate;
  bool driver_matches = true;
  PoolStats pool;
  DriverResult last;
  int64_t ckpt_files = 0;
  int64_t ckpt_dir_bytes = 0;
  int64_t jsonl_bytes = 0;
  const std::string probe_ckpt = args.work_dir + "/probe.gdpk";
  const Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || (pass < kMaxPasses &&
                             SecondsSince(start) < kPassShare * args.seconds);
       ++pass) {
    // The 1-thread run goes first, so the N-thread reference run leaves
    // the default pool in place for the driver.
    const TrainOutcome single =
        RunTrainerOnce(spec, args.seed, inputs, args.work_dir, 1);
    if (pass == 0 && spec.durable) {
      // What the first run of the process leaves on disk.
      DirectoryFootprint(args.work_dir + "/ckpt", &ckpt_files,
                         &ckpt_dir_bytes);
      jsonl_bytes = FileBytes(args.work_dir + "/steps.jsonl");
      const auto found =
          geodp::FindLatestGoodCheckpoint(args.work_dir + "/ckpt");
      std::error_code error;
      if (!found.ok() ||
          !std::filesystem::copy_file(
              found.value().path, probe_ckpt,
              std::filesystem::copy_options::overwrite_existing, error)) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: no checkpoint to probe\n");
      }
    }
    const TrainOutcome reference =
        RunTrainerOnce(spec, args.seed, inputs, args.work_dir, threads);
    out.attempted += 2;
    for (const TrainOutcome* outcome : {&single, &reference}) {
      std::string problem =
          CheckTrainOutcome(*outcome, initial_loss, expected_epsilon);
      if (problem.empty() && !SameTrainResult(*outcome, reference)) {
        problem = "1-thread result differs from the N-thread result";
      }
      if (!problem.empty()) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: run failed: %s\n", problem.c_str());
      }
    }
    if (single.ok) single_rate.push_back(examples / single.seconds);
    if (reference.ok) reference_rate.push_back(examples / reference.seconds);

    geodp::SetThreadPoolPartHook(&CountingPartHook);
    last = RunTrainingDriver(spec, args.seed, inputs, args.work_dir,
                             pass * spec.iterations, spans, pool);
    geodp::SetThreadPoolPartHook(nullptr);
    driver_rate.push_back(examples / last.seconds);
    const bool match = last.ok && reference.ok &&
                       BitEqual(last.params, reference.params) &&
                       SameBits(last.final_loss, reference.final_loss) &&
                       SameBits(last.epsilon, reference.epsilon);
    if (!match) {
      std::fprintf(stderr, "perfbench: driver pass %d differs from "
                   "DpTrainer::Run%s%s\n", pass, last.ok ? "" : ": ",
                   last.error.c_str());
    }
    driver_matches = driver_matches && match;
  }

  if (last.last_batch.empty()) {
    ++out.failed;
    std::fprintf(stderr, "perfbench: the driver ran no step to probe\n");
    return;
  }

  // -- Probes on the last step's real inputs --
  const double budget = kProbeShare * args.seconds;
  geodp::Sequential& model = *inputs.model;
  const std::vector<geodp::Parameter*> params = model.Parameters();
  geodp::SoftmaxCrossEntropy loss;
  const int64_t example = last.last_batch.front();
  const std::vector<double> sample_us = Probe(budget, [&] {
    geodp::ZeroGradients(params);
    const geodp::Tensor x = inputs.train.StackImages({example});
    (void)loss.Forward(model.Forward(x), {inputs.train.label(example)});
    model.Backward(loss.Backward());
  });
  const LayerKindTimes kinds = ProbeLayerKinds(inputs, example, budget);
  const std::vector<double> batch_us = Probe(budget, [&] {
    geodp::ZeroGradients(params);
    const geodp::Tensor x = inputs.train.StackImages(last.last_batch);
    (void)loss.Forward(model.Forward(x),
                       inputs.train.GatherLabels(last.last_batch));
    model.Backward(loss.Backward());
  });
  std::vector<geodp::Tensor> sample_grads;
  for (const int64_t index : last.last_batch) {
    geodp::ZeroGradients(params);
    const geodp::Tensor x = inputs.train.StackImages({index});
    (void)loss.Forward(model.Forward(x), {inputs.train.label(index)});
    model.Backward(loss.Backward());
    sample_grads.push_back(geodp::FlattenGradients(params));
  }
  geodp::ZeroGradients(params);
  const std::unique_ptr<geodp::Clipper> clipper =
      geodp::MakeClipper("flat", geodp::ClipThreshold(kClip));
  const std::vector<double> clip_us = Probe(
      budget, [&] { (void)geodp::ClipAndSum(sample_grads, *clipper); });

  geodp::RdpAccountant accountant;
  for (int64_t t = 0; t < spec.iterations; ++t) {
    accountant.AddSubsampledGaussianSteps(
        geodp::NoiseMultiplier(kSigma),
        geodp::SamplingRate(static_cast<double>(spec.batch) /
                            static_cast<double>(kTrainExamples)),
        1);
  }
  const std::vector<double> snapshot_us = Probe(
      budget, [&] { (void)accountant.Snapshot(geodp::Delta(kDelta)); });

  std::vector<double> load_us;
  if (spec.durable) {
    load_us = Probe(budget, [&] {
      if (!geodp::LoadTrainingCheckpoint(probe_ckpt).ok()) ++out.failed;
    });
  }

  // -- Metrics --
  const std::vector<double> step_ms = spans.DurationsMs("step");
  const double step_p50_ms = Percentile(step_ms, 50);
  const double sample_fwd_bwd_us = Median(sample_us);
  values["optim.step_ms.p50"] = step_p50_ms;
  values["optim.step_ms.p99"] = Percentile(step_ms, 99);
  values["optim.private_grad_ms"] =
      Median(spans.DurationsMs("optim.private_grad"));
  values["optim.apply_us"] = Median(spans.DurationsMs("optim.apply")) * 1e3;
  values["data.next_batch_us"] =
      Median(spans.DurationsMs("data.next_batch")) * 1e3;
  values["nn.sample_fwd_bwd_us"] = sample_fwd_bwd_us;
  values["nn.batch_fwd_bwd_ms"] = Median(batch_us) / 1e3;
  for (const char* kind : {"conv2d", "linear"}) {
    const std::string prefix = std::string("nn.") + kind;
    values[prefix + ".fwd_us"] = Median(kinds.fwd_us.at(kind));
    values[prefix + ".bwd_us"] = Median(kinds.bwd_us.at(kind));
  }
  values["nn.share_of_step"] =
      static_cast<double>(spec.batch) * sample_fwd_bwd_us / (step_p50_ms * 1e3);
  values["clip.accumulate_ms"] = Median(clip_us) / 1e3;
  values["clip.nonfinite_share"] = static_cast<double>(last.nonfinite) /
                                   static_cast<double>(last.samples);
  values["dp.account_us"] = Median(spans.DurationsMs("dp.account")) * 1e3;
  values["dp.snapshot_us"] = Median(snapshot_us);
  const std::vector<double> save_ms = spans.DurationsMs("ckpt.save");
  values["ckpt.save_ms.p50"] = Percentile(save_ms, 50);
  values["ckpt.save_ms.p99"] = Percentile(save_ms, 99);
  values["ckpt.load_ms"] = Median(load_us) / 1e3;
  values["ckpt.bytes"] =
      spec.durable ? static_cast<double>(FileBytes(probe_ckpt)) : 0.0;
  values["ckpt.dir_files"] = static_cast<double>(ckpt_files);
  values["ckpt.dir_bytes"] = static_cast<double>(ckpt_dir_bytes);
  values["obs.on_step_us"] = Median(spans.DurationsMs("obs.on_step")) * 1e3;
  values["obs.bytes_per_step"] = static_cast<double>(jsonl_bytes) /
                                 static_cast<double>(spec.iterations);
  AddPoolMetrics(out, values, pool, threads);
  values["pool.speedup"] = PoolSpeedup(reference_rate, single_rate);
  AddTraceMetrics(values, reference_rate, driver_rate, spans, driver_matches);

  values["core.perturb_ms"] = Median(spans.DurationsMs("core.perturb"));
  ProbeCore(spec, last.last_clipped, args.seed, budget, values);
}

// On the release workload a step is one GeoDP release.
void RunReleaseTraced(const RunArgs& args, SpanRecorder& spans,
                      RunResult& out, Values& values) {
  const WorkloadSpec& spec = *args.spec;
  const ReleaseInputs inputs = MakeReleaseInputs(spec, args.seed);
  geodp::SetGlobalThreadCount(0);
  const int threads = geodp::GetGlobalThreadCount();
  const geodp::GeoDpPerturber perturber(MakeGeoDpOptions(spec));
  const geodp::Tensor& gradient = inputs.gradient;

  std::vector<double> reference_rate;
  std::vector<double> single_rate;
  std::vector<double> driver_rate;
  bool driver_matches = true;
  PoolStats pool;
  geodp::Rng noise = geodp::Rng(args.seed + 2).Fork();
  const Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || (pass < kMaxPasses &&
                             SecondsSince(start) < kPassShare * args.seconds);
       ++pass) {
    // Untraced releases at one thread and at the default size, then the
    // same releases traced.
    geodp::SetGlobalThreadCount(1);
    geodp::Rng single_rng = noise;
    geodp::Tensor single;
    Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kReleasesPerPass; ++r) {
      single = perturber.Perturb(gradient, single_rng);
    }
    single_rate.push_back(kReleasesPerPass / SecondsSince(t0));
    geodp::SetGlobalThreadCount(threads);

    geodp::Rng reference_rng = noise;
    geodp::Tensor reference;
    t0 = Clock::now();
    for (int r = 0; r < kReleasesPerPass; ++r) {
      reference = perturber.Perturb(gradient, reference_rng);
      ++out.attempted;
      if (reference.numel() != spec.release_dim || !AllFinite(reference)) {
        ++out.failed;
      }
    }
    reference_rate.push_back(kReleasesPerPass / SecondsSince(t0));
    out.attempted += kReleasesPerPass;
    if (!BitEqual(single, reference)) {
      out.failed += kReleasesPerPass;
      std::fprintf(stderr, "perfbench: release differs across thread counts\n");
    }

    geodp::Rng driver_rng = noise;
    geodp::Tensor traced;
    geodp::SetThreadPoolPartHook(&CountingPartHook);
    t0 = Clock::now();
    for (int r = 0; r < kReleasesPerPass; ++r) {
      const int64_t step_id = int64_t{pass} * kReleasesPerPass + r;
      const StepPoolCounter counter;
      {
        const ScopedSpan step_span(spans, "step", step_id);
        const ScopedSpan span(spans, "core.perturb", step_id);
        traced = perturber.Perturb(gradient, driver_rng);
      }
      counter.Finish(pool);
    }
    driver_rate.push_back(kReleasesPerPass / SecondsSince(t0));
    geodp::SetThreadPoolPartHook(nullptr);
    const geodp::RngState a = reference_rng.ExportState();
    const geodp::RngState b = driver_rng.ExportState();
    driver_matches = driver_matches && BitEqual(traced, reference) &&
                     std::memcmp(a.state, b.state, sizeof a.state) == 0;
    noise = reference_rng;
  }

  const std::vector<double> step_ms = spans.DurationsMs("step");
  values["optim.step_ms.p50"] = Percentile(step_ms, 50);
  values["optim.step_ms.p99"] = Percentile(step_ms, 99);
  AddPoolMetrics(out, values, pool, threads);
  values["pool.speedup"] = PoolSpeedup(reference_rate, single_rate);
  AddTraceMetrics(values, reference_rate, driver_rate, spans, driver_matches);
  values["core.perturb_ms"] = Median(spans.DurationsMs("core.perturb"));
  ProbeCore(spec, gradient, args.seed, kProbeShare * args.seconds, values);
}

}  // namespace

RunResult RunTraced(const RunArgs& args) {
  SpanRecorder spans;
  RunResult out;
  Values values;
  if (args.spec->training) {
    RunTrainingTraced(args, spans, out, values);
  } else {
    RunReleaseTraced(args, spans, out, values);
  }
  for (const auto& [name, unit] : kPerLayerMetrics) {
    const auto it = values.find(name);
    out.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  out.correct = out.correct && out.failed == 0;
  std::fprintf(stderr,
               "perfbench: traced %s seed=%llu parts/step=%.0f ckpt.bytes=%.0f "
               "ckpt.dir_files=%.0f obs.bytes_per_step=%.6g\n",
               args.spec->name.c_str(),
               static_cast<unsigned long long>(args.seed),
               values["pool.parts_per_step"], values["ckpt.bytes"],
               values["ckpt.dir_files"], values["obs.bytes_per_step"]);
  if (!args.trace_out.empty() &&
      !spans.Write(args.trace_out, args.spec->name, args.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  return out;
}

}  // namespace perfbench
