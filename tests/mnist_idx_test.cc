// Tests for the MNIST IDX loader/exporter (round trips through real IDX
// bytes, header validation, truncation handling).

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/mnist_idx.h"
#include "data/synthetic_images.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::TestTempPath;

TEST(MnistIdxTest, RoundTripThroughIdxFiles) {
  SyntheticImageOptions options;
  options.num_examples = 12;
  options.pixel_noise = 0.1;
  options.seed = 3;
  const InMemoryDataset original = MakeMnistLike(options);

  const std::string images_path = TestTempPath("imgs.idx3");
  const std::string labels_path = TestTempPath("lbls.idx1");
  ASSERT_TRUE(SaveMnistIdx(original, images_path, labels_path).ok());

  StatusOr<InMemoryDataset> loaded = LoadMnistIdx(images_path, labels_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 12);
  EXPECT_EQ(loaded.value().image(0).shape(),
            (std::vector<int64_t>{1, 14, 14}));
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(loaded.value().label(i), original.label(i));
    // Pixel values round-trip up to [0,1] clamping + byte quantization.
    for (int64_t p = 0; p < 196; ++p) {
      const float expected =
          std::min(std::max(original.image(i)[p], 0.0f), 1.0f);
      EXPECT_NEAR(loaded.value().image(i)[p], expected, 1.0f / 255.0f + 1e-4f);
    }
  }
  std::remove(images_path.c_str());
  std::remove(labels_path.c_str());
}

TEST(MnistIdxTest, MaxExamplesLimitsLoad) {
  SyntheticImageOptions options;
  options.num_examples = 10;
  options.seed = 4;
  const InMemoryDataset original = MakeMnistLike(options);
  const std::string images_path = TestTempPath("imgs2.idx3");
  const std::string labels_path = TestTempPath("lbls2.idx1");
  ASSERT_TRUE(SaveMnistIdx(original, images_path, labels_path).ok());
  StatusOr<InMemoryDataset> loaded =
      LoadMnistIdx(images_path, labels_path, /*max_examples=*/4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 4);
  std::remove(images_path.c_str());
  std::remove(labels_path.c_str());
}

TEST(MnistIdxTest, MissingFilesFail) {
  StatusOr<InMemoryDataset> loaded =
      LoadMnistIdx("/nonexistent.idx3", "/nonexistent.idx1");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(MnistIdxTest, BadMagicFails) {
  const std::string images_path = TestTempPath("bad.idx3");
  const std::string labels_path = TestTempPath("bad.idx1");
  {
    std::ofstream out(images_path, std::ios::binary);
    out << "not an idx file at all";
  }
  {
    std::ofstream out(labels_path, std::ios::binary);
    out << "nor is this";
  }
  StatusOr<InMemoryDataset> loaded = LoadMnistIdx(images_path, labels_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(images_path.c_str());
  std::remove(labels_path.c_str());
}

TEST(MnistIdxTest, TruncatedDataFails) {
  SyntheticImageOptions options;
  options.num_examples = 6;
  options.seed = 5;
  const InMemoryDataset original = MakeMnistLike(options);
  const std::string images_path = TestTempPath("trunc.idx3");
  const std::string labels_path = TestTempPath("trunc.idx1");
  ASSERT_TRUE(SaveMnistIdx(original, images_path, labels_path).ok());
  // Chop the image file in half.
  {
    std::ifstream in(images_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(images_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  StatusOr<InMemoryDataset> loaded = LoadMnistIdx(images_path, labels_path);
  EXPECT_FALSE(loaded.ok());
  std::remove(images_path.c_str());
  std::remove(labels_path.c_str());
}

TEST(MnistIdxTest, CountMismatchFails) {
  SyntheticImageOptions options;
  options.num_examples = 5;
  options.seed = 6;
  const InMemoryDataset a = MakeMnistLike(options);
  options.num_examples = 7;
  const InMemoryDataset b = MakeMnistLike(options);
  const std::string images_a = TestTempPath("a.idx3");
  const std::string labels_a = TestTempPath("a.idx1");
  const std::string images_b = TestTempPath("b.idx3");
  const std::string labels_b = TestTempPath("b.idx1");
  ASSERT_TRUE(SaveMnistIdx(a, images_a, labels_a).ok());
  ASSERT_TRUE(SaveMnistIdx(b, images_b, labels_b).ok());
  // 5 images with 7 labels.
  StatusOr<InMemoryDataset> loaded = LoadMnistIdx(images_a, labels_b);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  for (const auto& p : {images_a, labels_a, images_b, labels_b}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace geodp
