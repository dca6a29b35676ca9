#include "ckpt/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "base/crc32.h"
#include "base/fault_injection.h"
#include "base/io/file_io.h"
#include "ckpt/byte_io.h"

namespace geodp {
namespace {

constexpr std::array<char, 4> kMagic = {'G', 'D', 'P', 'K'};
constexpr uint32_t kVersion = 1;
// magic + version + payload_len + crc
constexpr uint64_t kEnvelopeBytes = 4 + 4 + 8 + 4;
// Sanity bound on checkpoint size; models in this repo are a few MB at
// most, so a larger claimed length means a corrupt header.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

constexpr char kFilePrefix[] = "ckpt_";
constexpr char kFileSuffix[] = ".gdpk";
constexpr char kPostmortemPrefix[] = "postmortem-";
constexpr char kPostmortemSuffix[] = ".json";

void WriteRngState(ByteWriter& w, const RngState& state) {
  for (const uint64_t word : state.state) w.WriteU64(word);
  w.WriteBool(state.has_cached_gaussian);
  w.WriteDouble(state.cached_gaussian);
}

RngState ReadRngState(ByteReader& r) {
  RngState state;
  for (uint64_t& word : state.state) word = r.ReadU64();
  state.has_cached_gaussian = r.ReadBool();
  state.cached_gaussian = r.ReadDouble();
  return state;
}

void WriteBoolVector(ByteWriter& w, const std::vector<bool>& values) {
  w.WriteU64(values.size());
  for (const bool value : values) w.WriteBool(value);
}

std::vector<bool> ReadBoolVector(ByteReader& r) {
  const uint64_t count = r.ReadU64();
  std::vector<bool> values;
  for (uint64_t i = 0; i < count && !r.failed(); ++i) {
    values.push_back(r.ReadBool());
  }
  return values;
}

std::string EncodePayload(const TrainingCheckpoint& c) {
  ByteWriter w;
  w.WriteI64(c.next_attempt);
  w.WriteI64(c.accepted_updates);

  w.WriteI64Vector(c.loss_iterations);
  w.WriteDoubleVector(c.loss_history);
  w.WriteI64(c.empty_lots);
  w.WriteI64(c.nonfinite_skipped);
  w.WriteI64(c.sur_accepted);
  w.WriteI64(c.sur_rejected);
  w.WriteDouble(c.current_beta);

  w.WriteU64(c.param_names.size());
  for (size_t i = 0; i < c.param_names.size(); ++i) {
    w.WriteString(c.param_names[i]);
    w.WriteTensor(c.param_values[i]);
  }

  WriteRngState(w, c.noise_rng);
  WriteRngState(w, c.uniform_sampler.rng);
  w.WriteI64Vector(c.uniform_sampler.order);
  w.WriteI64(c.uniform_sampler.cursor);
  WriteRngState(w, c.poisson_rng);
  WriteRngState(w, c.importance_sampler.rng);
  w.WriteDoubleVector(c.importance_sampler.weights);
  WriteBoolVector(w, c.importance_sampler.seen);

  w.WriteTensor(c.adam.m);
  w.WriteTensor(c.adam.v);
  w.WriteI64(c.adam.step);

  w.WriteI64Vector(c.accountant_orders);
  w.WriteDoubleVector(c.accountant_rdp);
  w.WriteI64(c.accountant_steps);
  w.WriteU64(c.ledger_events.size());
  for (const PrivacyEvent& event : c.ledger_events) {
    w.WriteU8(static_cast<uint8_t>(event.kind));
    w.WriteDouble(event.noise_multiplier);
    w.WriteDouble(event.sampling_rate);
    w.WriteDouble(event.epsilon);
    w.WriteI64(event.count);
    w.WriteString(event.note);
  }

  w.WriteI64(c.beta_controller.observations);
  w.WriteDoubleVector(c.beta_controller.min_angle);
  w.WriteDoubleVector(c.beta_controller.max_angle);

  w.WriteString(c.options_fingerprint);
  return w.TakeBytes();
}

StatusOr<TrainingCheckpoint> DecodePayload(const std::string& payload) {
  ByteReader r(payload);
  TrainingCheckpoint c;
  c.next_attempt = r.ReadI64();
  c.accepted_updates = r.ReadI64();

  c.loss_iterations = r.ReadI64Vector();
  c.loss_history = r.ReadDoubleVector();
  c.empty_lots = r.ReadI64();
  c.nonfinite_skipped = r.ReadI64();
  c.sur_accepted = r.ReadI64();
  c.sur_rejected = r.ReadI64();
  c.current_beta = r.ReadDouble();

  const uint64_t param_count = r.ReadU64();
  // Each parameter entry is at least a name length and a shape length.
  if (r.failed() || param_count > payload.size() / 16) {
    return Status::InvalidArgument("checkpoint payload is malformed");
  }
  for (uint64_t i = 0; i < param_count && !r.failed(); ++i) {
    c.param_names.push_back(r.ReadString());
    c.param_values.push_back(r.ReadTensor());
  }

  c.noise_rng = ReadRngState(r);
  c.uniform_sampler.rng = ReadRngState(r);
  c.uniform_sampler.order = r.ReadI64Vector();
  c.uniform_sampler.cursor = r.ReadI64();
  c.poisson_rng = ReadRngState(r);
  c.importance_sampler.rng = ReadRngState(r);
  c.importance_sampler.weights = r.ReadDoubleVector();
  c.importance_sampler.seen = ReadBoolVector(r);

  c.adam.m = r.ReadTensor();
  c.adam.v = r.ReadTensor();
  c.adam.step = r.ReadI64();

  c.accountant_orders = r.ReadI64Vector();
  c.accountant_rdp = r.ReadDoubleVector();
  c.accountant_steps = r.ReadI64();
  const uint64_t event_count = r.ReadU64();
  if (r.failed() || event_count > payload.size()) {
    return Status::InvalidArgument("checkpoint payload is malformed");
  }
  for (uint64_t i = 0; i < event_count && !r.failed(); ++i) {
    PrivacyEvent event;
    const uint8_t kind = r.ReadU8();
    if (kind > static_cast<uint8_t>(PrivacyEvent::Kind::kLaplace)) {
      return Status::InvalidArgument(
          "checkpoint ledger event has unknown kind");
    }
    event.kind = static_cast<PrivacyEvent::Kind>(kind);
    event.noise_multiplier = r.ReadDouble();
    event.sampling_rate = r.ReadDouble();
    event.epsilon = r.ReadDouble();
    event.count = r.ReadI64();
    event.note = r.ReadString();
    c.ledger_events.push_back(std::move(event));
  }

  c.beta_controller.observations = r.ReadI64();
  c.beta_controller.min_angle = r.ReadDoubleVector();
  c.beta_controller.max_angle = r.ReadDoubleVector();

  c.options_fingerprint = r.ReadString();

  if (r.failed() || r.remaining() != 0) {
    return Status::InvalidArgument("checkpoint payload is malformed");
  }
  if (c.next_attempt < 0 || c.accepted_updates < 0 ||
      c.accepted_updates > c.next_attempt) {
    return Status::InvalidArgument(
        "checkpoint progress counters are inconsistent");
  }
  return c;
}

// Appends `value` to `out` in little-endian byte order regardless of host
// endianness (the repo targets little-endian hosts; this keeps the format
// well-defined anyway).
template <typename T>
void AppendPod(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

// Parses the number out of "<prefix><digits><suffix>" (e.g.
// "ckpt_000000123.gdpk"); -1 when the name does not match that pattern.
int64_t ParseNumberedName(const std::string& filename, const char* prefix,
                          const char* suffix) {
  const size_t prefix_len = std::strlen(prefix);
  const size_t suffix_len = std::strlen(suffix);
  if (filename.size() <= prefix_len + suffix_len) return -1;
  if (filename.compare(0, prefix_len, prefix) != 0) return -1;
  if (filename.compare(filename.size() - suffix_len, suffix_len, suffix) !=
      0) {
    return -1;
  }
  int64_t number = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    const char ch = filename[i];
    if (ch < '0' || ch > '9') return -1;
    if (number > (INT64_MAX - (ch - '0')) / 10) return -1;
    number = number * 10 + (ch - '0');
  }
  return number;
}

// All "<prefix><digits><suffix>" files in `dir`, newest (highest number)
// first.
std::vector<std::pair<int64_t, std::string>> ListNumberedFiles(
    const std::string& dir, const char* prefix, const char* suffix) {
  std::vector<std::pair<int64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const int64_t number = ParseNumberedName(name, prefix, suffix);
    if (number >= 0) files.emplace_back(number, entry.path().string());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return files;
}

// All canonical checkpoint files in `dir`, newest (highest attempt) first.
std::vector<std::pair<int64_t, std::string>> ListCheckpointFiles(
    const std::string& dir) {
  return ListNumberedFiles(dir, kFilePrefix, kFileSuffix);
}

}  // namespace

std::string CheckpointFileName(int64_t next_attempt) {
  std::array<char, 32> buffer;
  std::snprintf(buffer.data(), buffer.size(), "%s%09lld%s", kFilePrefix,
                static_cast<long long>(next_attempt), kFileSuffix);
  return buffer.data();
}

std::string PostmortemFileName(int64_t step) {
  std::array<char, 32> buffer;
  std::snprintf(buffer.data(), buffer.size(), "%s%09lld%s",
                kPostmortemPrefix, static_cast<long long>(step),
                kPostmortemSuffix);
  return buffer.data();
}

Status SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                              const std::string& path) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Fire("ckpt.before_write");

  const std::string payload = EncodePayload(checkpoint);
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("checkpoint payload exceeds size bound");
  }
  std::string file_bytes;
  file_bytes.reserve(payload.size() + kEnvelopeBytes);
  file_bytes.append(kMagic.data(), kMagic.size());
  AppendPod<uint32_t>(file_bytes, kVersion);
  AppendPod<uint64_t>(file_bytes, payload.size());
  file_bytes.append(payload);
  AppendPod<uint32_t>(file_bytes, Crc32(payload.data(), payload.size()));

  switch (faults.Fire("ckpt.write")) {
    case FaultInjector::Action::kShortWrite:
      // Torn write: drop the second half of the file.
      file_bytes.resize(file_bytes.size() / 2);
      break;
    case FaultInjector::Action::kBitFlip:
      // Bit rot: flip one bit in the middle of the payload.
      file_bytes[file_bytes.size() / 2] ^= 0x10;
      break;
    default:
      break;
  }

  // The atomic protocol (temp file + fsync + rename + dir fsync) lives in
  // the I/O substrate now; "ckpt.write_io" injects errnos into it and
  // "ckpt.before_rename" preserves the crash window between the durable
  // temp file and the rename.
  return AtomicWriteFile(path, file_bytes, RetryPolicy{}, "ckpt.write_io",
                         "ckpt.before_rename");
}

StatusOr<TrainingCheckpoint> LoadTrainingCheckpoint(const std::string& path) {
  StatusOr<std::string> read =
      ReadFileWithRetry(path, RetryPolicy{}, "ckpt.read");
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open checkpoint file: " + path);
    }
    return read.status();
  }
  const std::string bytes = std::move(read).value();

  if (bytes.size() < kEnvelopeBytes) {
    return Status::InvalidArgument("truncated checkpoint file: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return Status::InvalidArgument("bad checkpoint magic: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version: " + path);
  }
  uint64_t payload_length = 0;
  std::memcpy(&payload_length, bytes.data() + 8, sizeof(payload_length));
  if (payload_length > kMaxPayloadBytes ||
      payload_length != bytes.size() - kEnvelopeBytes) {
    return Status::InvalidArgument("checkpoint length mismatch: " + path);
  }
  const char* payload_begin = bytes.data() + 16;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, payload_begin + payload_length,
              sizeof(stored_crc));
  if (stored_crc != Crc32(payload_begin, payload_length)) {
    return Status::InvalidArgument("checkpoint checksum mismatch: " + path);
  }

  StatusOr<TrainingCheckpoint> decoded = DecodePayload(
      std::string(payload_begin, static_cast<size_t>(payload_length)));
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

StatusOr<FoundCheckpoint> FindLatestGoodCheckpoint(const std::string& dir) {
  const auto files = ListCheckpointFiles(dir);
  if (files.empty()) {
    return Status::NotFound("no checkpoint files in: " + dir);
  }
  int64_t skipped = 0;
  for (const auto& [attempt, path] : files) {
    StatusOr<TrainingCheckpoint> loaded = LoadTrainingCheckpoint(path);
    if (loaded.ok()) {
      FoundCheckpoint found;
      found.checkpoint = std::move(loaded).value();
      found.path = path;
      found.skipped_corrupt = skipped;
      return found;
    }
    ++skipped;
  }
  return Status::NotFound("no valid checkpoint in: " + dir + " (" +
                          std::to_string(skipped) + " corrupt)");
}

int64_t PruneOldCheckpoints(const std::string& dir, int64_t keep,
                            int64_t resume_point) {
  if (keep < 1) keep = 1;
  int64_t errors = 0;
  const auto prune = [&](const std::vector<std::pair<int64_t, std::string>>&
                             files) {
    for (size_t i = static_cast<size_t>(keep); i < files.size(); ++i) {
      const FaultInjector::Action fired =
          FaultInjector::Global().Fire("ckpt.prune");
      if (FaultInjector::SimulatedErrno(fired) != 0) {
        ++errors;  // simulated unlink failure: leave the file, count it
        continue;
      }
      if (std::remove(files[i].second.c_str()) != 0) ++errors;
    }
  };
  prune(ListCheckpointFiles(dir));
  std::vector<std::pair<int64_t, std::string>> postmortems =
      ListNumberedFiles(dir, kPostmortemPrefix, kPostmortemSuffix);
  postmortems.erase(std::remove_if(postmortems.begin(), postmortems.end(),
                                   [&](const auto& file) {
                                     return file.first == resume_point;
                                   }),
                    postmortems.end());
  prune(postmortems);
  return errors;
}

}  // namespace geodp
