// Exhaustive corruption regression suite for the GDPC model checkpoint
// (nn/checkpoint.cc): flip a bit at EVERY byte offset and truncate at
// EVERY length — every corrupt file must produce a non-OK Status, never a
// crash, and never a partially mutated model.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "base/byte_view.h"
#include "base/rng.h"
#include "models/logistic_regression.h"
#include "nn/checkpoint.h"
#include "nn/parameter.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::TestTempPath;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Raw bytes of the model weights, for bit-exact no-mutation checks.
std::string WeightBytes(Sequential& model) {
  const Tensor flat = FlattenValues(model.Parameters());
  const geodp::ByteSpan bytes =
      geodp::AsBytes(flat.data(), static_cast<size_t>(flat.numel()));
  return std::string(bytes.data, bytes.size);
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A deliberately tiny model keeps the exhaustive sweeps fast.
    Rng source_rng(21);
    source_ = MakeLogisticRegression(16, 4, source_rng);
    path_ = TestTempPath("corruption.gdpc");
    ASSERT_TRUE(SaveCheckpoint(*source_, path_).ok());
    good_bytes_ = ReadFile(path_);
    ASSERT_GT(good_bytes_.size(), 16u);

    Rng target_rng(22);  // different init than the checkpoint
    target_ = MakeLogisticRegression(16, 4, target_rng);
    target_before_ = WeightBytes(*target_);
  }

  std::unique_ptr<Sequential> source_;
  std::unique_ptr<Sequential> target_;
  std::string path_;
  std::string good_bytes_;
  std::string target_before_;
};

TEST_F(CheckpointCorruptionTest, BitFlipAtEveryOffsetIsRejected) {
  for (size_t offset = 0; offset < good_bytes_.size(); ++offset) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bad = good_bytes_;
      bad[offset] = static_cast<char>(bad[offset] ^ mask);
      WriteFile(path_, bad);
      const Status status = LoadCheckpoint(*target_, path_);
      EXPECT_FALSE(status.ok())
          << "flip of mask " << int{mask} << " at offset " << offset
          << " was accepted";
      EXPECT_EQ(WeightBytes(*target_), target_before_)
          << "model mutated by rejected load (offset " << offset << ")";
    }
  }
}

TEST_F(CheckpointCorruptionTest, TruncationAtEveryLengthIsRejected) {
  for (size_t keep = 0; keep < good_bytes_.size(); ++keep) {
    WriteFile(path_, good_bytes_.substr(0, keep));
    const Status status = LoadCheckpoint(*target_, path_);
    EXPECT_FALSE(status.ok())
        << "truncation to " << keep << " bytes was accepted";
    EXPECT_EQ(WeightBytes(*target_), target_before_)
        << "model mutated by rejected load (keep " << keep << ")";
  }
}

TEST_F(CheckpointCorruptionTest, AppendedGarbageIsRejected) {
  WriteFile(path_, good_bytes_ + std::string(33, '\x5a'));
  // Trailing garbage after the last tensor is tolerated by the streaming
  // reader only if it never reads past the declared tensors; the GDPC
  // reader stops after `count` entries, so this stays loadable. What must
  // hold is that the loaded weights equal the source exactly.
  const Status status = LoadCheckpoint(*target_, path_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(WeightBytes(*target_), WeightBytes(*source_));
}

TEST_F(CheckpointCorruptionTest, IntactFileRoundTripsExactly) {
  WriteFile(path_, good_bytes_);
  ASSERT_TRUE(LoadCheckpoint(*target_, path_).ok());
  EXPECT_EQ(WeightBytes(*target_), WeightBytes(*source_));
}

}  // namespace
}  // namespace geodp
