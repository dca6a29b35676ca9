// Tests for tensor serialization and model checkpoints.

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "models/cnn.h"
#include "models/mlp.h"
#include "nn/checkpoint.h"
#include "nn/parameter.h"
#include "tensor/serialization.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::TestTempPath;

// The GDPT record of `tensor`, as written into a checkpoint.
std::string Record(const Tensor& tensor) {
  ByteWriter out;
  WriteTensorRecord(tensor, out);
  return out.TakeBytes();
}

StatusOr<Tensor> ReadRecord(const std::string& bytes) {
  ByteReader in(bytes);
  return ReadTensorRecord(in);
}

TEST(TensorSerializationTest, StreamRoundTrip) {
  Rng rng(1);
  const Tensor original = Tensor::Randn({3, 4, 5}, rng);
  StatusOr<Tensor> restored = ReadRecord(Record(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().shape(), original.shape());
  EXPECT_TRUE(AllClose(restored.value(), original, 0.0, 0.0));
}

TEST(TensorSerializationTest, MultipleTensorsInOneStream) {
  Rng rng(2);
  const Tensor a = Tensor::Randn({4}, rng);
  const Tensor b = Tensor::Randn({2, 2}, rng);
  ByteWriter out;
  WriteTensorRecord(a, out);
  WriteTensorRecord(b, out);
  ByteReader in(out.bytes());
  StatusOr<Tensor> ra = ReadTensorRecord(in);
  StatusOr<Tensor> rb = ReadTensorRecord(in);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(AllClose(ra.value(), a, 0.0, 0.0));
  EXPECT_TRUE(AllClose(rb.value(), b, 0.0, 0.0));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(TensorSerializationTest, RejectsGarbage) {
  StatusOr<Tensor> restored = ReadRecord("this is not a tensor");
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(TensorSerializationTest, RejectsTruncatedData) {
  Rng rng(3);
  const std::string bytes = Record(Tensor::Randn({64}, rng));
  EXPECT_FALSE(ReadRecord(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(TensorSerializationTest, BitFlipAnywhereIsDetected) {
  // The v2 integrity trailer (payload length + CRC-32) must catch a single
  // bit flip at any offset, including inside the float payload where no
  // structural check would notice.
  Rng rng(41);
  const std::string bytes = Record(Tensor::Randn({5, 5}, rng));
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string bad = bytes;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x04);
    EXPECT_FALSE(ReadRecord(bad).ok())
        << "bit flip at offset " << offset << " went undetected";
  }
}

TEST(TensorSerializationTest, TruncatedTrailerIsDetected) {
  Rng rng(42);
  const std::string bytes = Record(Tensor::Randn({8}, rng));
  // Cut anywhere inside the 12-byte trailer: the data is all present, so
  // only the trailer checks can notice.
  for (size_t cut = bytes.size() - 12; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(ReadRecord(bytes.substr(0, cut)).ok())
        << "trailer truncation at " << cut << " went undetected";
  }
}

TEST(TensorSerializationTest, ReadsLegacyV1WithoutTrailer) {
  // A v1 record is the v2 record minus the trailer, with version 1 in
  // the header. Old files must stay readable.
  Rng rng(43);
  const Tensor original = Tensor::Randn({3, 2}, rng);
  std::string bytes = Record(original);
  bytes.resize(bytes.size() - 12);  // strip u64 length + u32 crc
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  ByteReader in(bytes);
  StatusOr<Tensor> restored = ReadTensorRecord(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(AllClose(restored.value(), original, 0.0, 0.0));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(TensorSerializationTest, EmptyTensorRoundTrips) {
  StatusOr<Tensor> restored = ReadRecord(Record(Tensor()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().numel(), 0);
}

TEST(CheckpointTest, CnnRoundTrip) {
  Rng rng(5);
  CnnConfig config;
  config.image_size = 8;
  auto model = MakeCnn(config, rng);
  const std::string path = TestTempPath("cnn.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());

  Rng rng2(999);  // different init
  auto restored = MakeCnn(config, rng2);
  EXPECT_FALSE(AllClose(FlattenValues(restored->Parameters()),
                        FlattenValues(model->Parameters())));
  ASSERT_TRUE(LoadCheckpoint(*restored, path).ok());
  EXPECT_TRUE(AllClose(FlattenValues(restored->Parameters()),
                       FlattenValues(model->Parameters()), 0.0, 0.0));
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoredModelComputesSameOutput) {
  Rng rng(6);
  MlpConfig config;
  config.input_dim = 16;
  config.hidden_dims = {8};
  config.num_classes = 4;
  auto model = MakeMlp(config, rng);
  const std::string path = TestTempPath("mlp.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());

  Rng rng2(7);
  auto restored = MakeMlp(config, rng2);
  ASSERT_TRUE(LoadCheckpoint(*restored, path).ok());
  const Tensor x = Tensor::Randn({3, 1, 4, 4}, rng);
  EXPECT_TRUE(AllClose(restored->Forward(x), model->Forward(x)));
  std::remove(path.c_str());
}

TEST(CheckpointTest, StructureMismatchFails) {
  Rng rng(8);
  MlpConfig small, large;
  small.input_dim = 16;
  small.hidden_dims = {8};
  large.input_dim = 16;
  large.hidden_dims = {8, 8};
  auto model = MakeMlp(small, rng);
  const std::string path = TestTempPath("mismatch.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());
  auto other = MakeMlp(large, rng);
  const Status status = LoadCheckpoint(*other, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchFails) {
  Rng rng(9);
  MlpConfig a, b;
  a.input_dim = 16;
  a.hidden_dims = {8};
  b.input_dim = 16;
  b.hidden_dims = {12};  // same structure, different width
  auto model = MakeMlp(a, rng);
  const std::string path = TestTempPath("shape.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());
  auto other = MakeMlp(b, rng);
  EXPECT_FALSE(LoadCheckpoint(*other, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geodp
