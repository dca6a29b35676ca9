// Tests for base/byte_view.h — the audited home of type punning (lint
// rule R6) — plus byte-exact golden tests proving the codecs rebuilt on
// it (GDPT tensors, GDPC checkpoints, IDX exports) still emit exactly
// the wire bytes they did before the migration. The golden streams are
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
#include "data/mnist_idx.h"
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

void AppendBigEndian32(std::string& out, uint32_t value) {
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>(value & 0xFF));
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
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(WriteTensor(tensor, out).ok());

  std::string payload = "GDPT";
  AppendPod(payload, uint32_t{2});  // version
  AppendPod(payload, uint32_t{2});  // ndim
  AppendPod(payload, int64_t{2});
  AppendPod(payload, int64_t{3});
  for (const float f : data) AppendPod(payload, f);
  std::string expected = payload;
  AppendPod(expected, static_cast<uint64_t>(payload.size()));
  AppendPod(expected, TestCrc32(payload));

  EXPECT_EQ(out.str(), expected);
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
    std::ostringstream tensor_bytes(std::ios::binary);
    ASSERT_TRUE(WriteTensor(p->value, tensor_bytes).ok());
    expected += tensor_bytes.str();
  }

  EXPECT_EQ(ReadWholeFile(path), expected);
}

TEST(GoldenBytesTest, IdxExportFormatIsUnchanged) {
  InMemoryDataset dataset;
  dataset.Add(Tensor::FromVector({1, 2, 2}, {0.0f, 0.5f, 1.0f, 0.25f}), 3);
  dataset.Add(Tensor::FromVector({1, 2, 2}, {1.0f, 0.0f, 0.75f, 0.5f}), 1);
  const std::string images_path = TestTempPath("byte_view_golden_images.idx");
  const std::string labels_path = TestTempPath("byte_view_golden_labels.idx");
  ASSERT_TRUE(SaveMnistIdx(dataset, images_path, labels_path).ok());

  std::string images;
  AppendBigEndian32(images, 2051);  // IDX3 magic
  AppendBigEndian32(images, 2);     // examples
  AppendBigEndian32(images, 2);     // rows
  AppendBigEndian32(images, 2);     // cols
  // Pixels quantized as round(clamp(v, 0, 1) * 255).
  const std::array<unsigned char, 8> pixels = {0, 128, 255, 64,
                                               255, 0, 191, 128};
  for (const unsigned char pixel : pixels) {
    images.push_back(static_cast<char>(pixel));
  }
  std::string labels;
  AppendBigEndian32(labels, 2049);  // IDX1 magic
  AppendBigEndian32(labels, 2);
  labels.push_back(3);
  labels.push_back(1);

  EXPECT_EQ(ReadWholeFile(images_path), images);
  EXPECT_EQ(ReadWholeFile(labels_path), labels);
}

}  // namespace
}  // namespace geodp
