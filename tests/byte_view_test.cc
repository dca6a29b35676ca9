// Tests for base/byte_view.h — the audited home of type punning (lint
// rule R6) — plus byte-exact golden tests proving the wire formats (GDPT
// tensors, GDPC model checkpoints, the GDPK training-checkpoint envelope)
// still emit exactly the bytes they always have. The golden streams are
// assembled with std::memcpy and hand-rolled CRC only, so they do not
// depend on the code under test.

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/byte_view.h"
#include "base/rng.h"
#include "ckpt/checkpoint.h"
#include "nn/checkpoint.h"
#include "nn/linear.h"
#include "nn/parameter.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::TestTempPath;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Appends the object's bytes via memcpy only — independent of
// byte_view.h, so golden streams are built without the code under test.
template <typename T>
void AppendPod(std::string& out, const T& value) {
  std::array<char, sizeof(T)> buffer;
  std::memcpy(buffer.data(), &value, sizeof(T));
  out.append(buffer.data(), buffer.size());
}

// Independent bitwise CRC-32 (reflected 0xEDB88320) — deliberately not
// the table implementation in base/crc32.cc, so the trailer check
// cross-validates both.
uint32_t TestCrc32(const std::string& data) {
  uint32_t state = 0xFFFFFFFFu;
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state ^ 0xFFFFFFFFu;
}

TEST(ByteViewTest, AsBytesMatchesMemcpy) {
  const uint32_t value = 0x01020304u;
  const ByteSpan bytes = AsBytes(value);
  ASSERT_EQ(bytes.size, sizeof(value));
  std::array<char, sizeof(value)> expected;
  std::memcpy(expected.data(), &value, sizeof(value));
  EXPECT_EQ(std::memcmp(bytes.data, expected.data(), sizeof(value)), 0);
}

TEST(ByteViewTest, FromBytesRoundTripsAnyTriviallyCopyableValue) {
  const double value = -123.456789;
  const double restored = FromBytes<double>(AsBytes(value));
  EXPECT_EQ(restored, value);
}

TEST(ByteViewTest, ElementRangeOverloadsSpanTheWholeRange) {
  std::vector<float> values = {1.0f, 2.0f, 3.0f};
  const ByteSpan bytes = AsBytes(values.data(), values.size());
  EXPECT_EQ(bytes.size, values.size() * sizeof(float));
  EXPECT_EQ(static_cast<const void*>(bytes.data),
            static_cast<const void*>(values.data()));

  // Writing through the mutable span is visible in the vector.
  const MutableByteSpan writable =
      AsWritableBytes(values.data(), values.size());
  const float replacement = 9.5f;
  std::memcpy(writable.data, &replacement, sizeof(replacement));
  EXPECT_EQ(values[0], 9.5f);
}

TEST(ByteViewTest, PunCastPreservesAddressAndConstness) {
  struct Probe {
    int x = 7;
  };
  Probe probe;
  EXPECT_EQ(static_cast<void*>(PunCast<char>(&probe)),
            static_cast<void*>(&probe));
  const Probe& const_probe = probe;
  const char* viewed = PunCast<const char>(&const_probe);
  EXPECT_EQ(static_cast<const void*>(viewed),
            static_cast<const void*>(&const_probe));
}

TEST(GoldenBytesTest, TensorWireFormatIsUnchanged) {
  const std::vector<float> data = {0.0f, 1.5f, -2.25f, 3.0f, 4.5f, -6.75f};
  const Tensor tensor = Tensor::FromVector({2, 3}, data);
  ByteWriter out;
  WriteTensorRecord(tensor, out);

  std::string payload = "GDPT";
  AppendPod(payload, uint32_t{2});  // version
  AppendPod(payload, uint32_t{2});  // ndim
  AppendPod(payload, int64_t{2});
  AppendPod(payload, int64_t{3});
  for (const float f : data) AppendPod(payload, f);
  std::string expected = payload;
  AppendPod(expected, static_cast<uint64_t>(payload.size()));
  AppendPod(expected, TestCrc32(payload));

  EXPECT_EQ(out.bytes(), expected);
}

TEST(GoldenBytesTest, CheckpointContainerFormatIsUnchanged) {
  Rng rng(11);
  Linear model(3, 2, rng);
  const std::string path = TestTempPath("byte_view_golden.gdpc");
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  std::string expected = "GDPC";
  const std::vector<Parameter*> params = model.Parameters();
  AppendPod(expected, static_cast<uint32_t>(params.size()));
  for (Parameter* p : params) {
    AppendPod(expected, static_cast<uint32_t>(p->name.size()));
    expected += p->name;
    // Each value is a GDPT v2 record: header, extents, data, trailer.
    std::string record = "GDPT";
    AppendPod(record, uint32_t{2});  // version
    AppendPod(record, static_cast<uint32_t>(p->value.ndim()));
    for (const int64_t extent : p->value.shape()) AppendPod(record, extent);
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      AppendPod(record, p->value[i]);
    }
    expected += record;
    AppendPod(expected, static_cast<uint64_t>(record.size()));
    AppendPod(expected, TestCrc32(record));
  }

  EXPECT_EQ(ReadWholeFile(path), expected);
}

// A training checkpoint with every field set, both ledger event kinds
// that carry numbers included.
TrainingCheckpoint PinnedCheckpoint() {
  TrainingCheckpoint c;
  c.next_attempt = 12;
  c.accepted_updates = 11;
  c.loss_iterations = {0, 10};
  c.loss_history = {2.31, 1.87};
  c.empty_lots = 1;
  c.nonfinite_skipped = 2;
  c.sur_accepted = 5;
  c.sur_rejected = 3;
  c.current_beta = 0.05;
  c.param_names = {"fc.weight", "fc.bias"};
  c.param_values = {Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}),
                    Tensor::FromVector({3}, {7, 8, 9})};
  c.noise_rng.state[0] = 0x1234;
  c.noise_rng.state[3] = 0xFEDCBA9876543210u;
  c.noise_rng.has_cached_gaussian = true;
  c.noise_rng.cached_gaussian = -0.75;
  c.uniform_sampler.rng.state[1] = 42;
  c.uniform_sampler.order = {3, 1, 0, 2};
  c.uniform_sampler.cursor = 2;
  c.poisson_rng.state[2] = 7;
  c.importance_sampler.rng.state[0] = 9;
  c.importance_sampler.weights = {1.0, 2.0, 3.0, 4.0};
  c.importance_sampler.seen = {true, false, true, false};
  c.adam.m = Tensor::FromVector({9}, std::vector<float>(9, 0.5f));
  c.adam.v = Tensor::FromVector({9}, std::vector<float>(9, 0.25f));
  c.adam.step = 11;
  c.accountant_orders = {2, 3, 4};
  c.accountant_rdp = {0.1, 0.2, 0.3};
  c.accountant_steps = 11;
  PrivacyEvent gaussian;
  gaussian.kind = PrivacyEvent::Kind::kSubsampledGaussian;
  gaussian.noise_multiplier = 1.0;
  gaussian.sampling_rate = 0.1;
  gaussian.count = 11;
  gaussian.note = "dp-sgd step";
  PrivacyEvent laplace;
  laplace.kind = PrivacyEvent::Kind::kLaplace;
  laplace.epsilon = 0.5;
  laplace.note = "release";
  c.ledger_events = {gaussian, laplace};
  c.beta_controller.observations = 4;
  c.beta_controller.min_angle = {0.1, 0.2};
  c.beta_controller.max_angle = {1.1, 1.2};
  c.options_fingerprint = "v1|test";
  return c;
}

TEST(GoldenBytesTest, TrainingCheckpointEnvelopeIsPinned) {
  const std::string path = TestTempPath("byte_view_golden.gdpk");
  ASSERT_TRUE(SaveTrainingCheckpoint(PinnedCheckpoint(), path).ok());
  const std::string bytes = ReadWholeFile(path);

  // Length and CRC of the whole file as the format has always written it.
  EXPECT_EQ(bytes.size(), 867u);
  EXPECT_EQ(TestCrc32(bytes), 0x9D942ACFu);

  // The envelope: magic, version 1, payload length, payload, payload CRC.
  ASSERT_GE(bytes.size(), 20u);
  const std::string payload = bytes.substr(16, bytes.size() - 20);
  std::string envelope = "GDPK";
  AppendPod(envelope, uint32_t{1});
  AppendPod(envelope, static_cast<uint64_t>(payload.size()));
  envelope += payload;
  AppendPod(envelope, TestCrc32(payload));
  EXPECT_EQ(bytes, envelope);
}

}  // namespace
}  // namespace geodp
