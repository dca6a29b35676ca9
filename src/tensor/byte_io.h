// Bounds-checked binary encoding: the one codec behind every wire format
// in the library (GDPT tensor records, GDPC model checkpoints, GDPK
// training checkpoints).
//
// ByteWriter appends fixed-width little-endian primitives to an in-memory
// buffer; ByteReader decodes them with explicit bounds checks, so a
// truncated or bit-flipped buffer turns into a failed() reader instead of
// undefined behavior, and a corrupt length is refused before anything is
// allocated for it. Doubles and floats are serialized as raw IEEE-754
// bytes: a round-trip is bit-exact, which the resume-determinism guarantee
// depends on.

#ifndef GEODP_TENSOR_BYTE_IO_H_
#define GEODP_TENSOR_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Appends primitives to a growing byte buffer.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { WriteBytes(&value, sizeof(value)); }
  void WriteU32(uint32_t value) { WriteBytes(&value, sizeof(value)); }
  void WriteU64(uint64_t value) { WriteBytes(&value, sizeof(value)); }
  void WriteI64(int64_t value) { WriteBytes(&value, sizeof(value)); }
  void WriteDouble(double value) { WriteBytes(&value, sizeof(value)); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }

  /// Raw bytes with no length prefix (magics, nested records, data).
  void WriteBytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  void WriteBytes(std::string_view bytes) {
    WriteBytes(bytes.data(), bytes.size());
  }

  void WriteString(const std::string& value) {
    WriteU64(value.size());
    WriteBytes(value);
  }

  void WriteI64Vector(const std::vector<int64_t>& values) {
    WriteU64(values.size());
    WriteBytes(values.data(), values.size() * sizeof(int64_t));
  }

  void WriteDoubleVector(const std::vector<double>& values) {
    WriteU64(values.size());
    WriteBytes(values.data(), values.size() * sizeof(double));
  }

  /// Shape + raw float32 data (payload-internal format; the enclosing
  /// checkpoint's CRC covers it, so no per-tensor trailer).
  void WriteTensor(const Tensor& tensor) {
    WriteI64Vector(tensor.shape());
    WriteBytes(tensor.data(),
               static_cast<size_t>(tensor.numel()) * sizeof(float));
  }

  void Reserve(size_t bytes) { buffer_.reserve(bytes); }
  size_t size() const { return buffer_.size(); }
  const std::string& bytes() const { return buffer_; }
  std::string TakeBytes() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Decodes a buffer written by ByteWriter. Every read is bounds-checked:
/// on underflow the reader latches failed() and returns zero values, so
/// callers can decode a whole struct and check failure once at the end.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  double ReadDouble() { return ReadPod<double>(); }
  bool ReadBool() { return ReadU8() != 0; }

  /// The next `size` bytes, viewed in place (no length prefix); empty when
  /// fewer remain.
  std::string_view ReadBytes(uint64_t size) {
    if (!HasRemaining(size)) return {};
    const std::string_view bytes(data_ + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return bytes;
  }

  std::string ReadString() { return std::string(ReadBytes(ReadU64())); }

  std::vector<int64_t> ReadI64Vector() {
    return ReadPodArray<int64_t>(ReadU64());
  }

  std::vector<double> ReadDoubleVector() {
    return ReadPodArray<double>(ReadU64());
  }

  /// `count` raw float32 values (no length prefix).
  std::vector<float> ReadFloats(uint64_t count) {
    return ReadPodArray<float>(count);
  }

  Tensor ReadTensor() {
    const std::vector<int64_t> shape = ReadI64Vector();
    // A default-constructed Tensor serializes as an empty shape with no
    // data (numel 0), not as a rank-0 scalar.
    if (shape.empty()) return Tensor();
    int64_t numel = 1;
    for (const int64_t extent : shape) {
      if (extent <= 0 || numel > (int64_t{1} << 34) / extent) {
        Fail();
        return Tensor();
      }
      numel *= extent;
    }
    std::vector<float> data = ReadFloats(static_cast<uint64_t>(numel));
    if (failed_) return Tensor();
    return Tensor::FromVector(shape, std::move(data));
  }

  /// True once any read ran past the end of the buffer (or hit a malformed
  /// length); all subsequent reads return empty/zero values.
  bool failed() const { return failed_; }

  /// Bytes not yet consumed. A well-formed payload decodes to exactly 0.
  size_t remaining() const { return size_ - pos_; }

  /// Offset of the next unread byte, for ConsumedSince.
  size_t position() const { return pos_; }

  /// The bytes read since `start` (an earlier position()): what a
  /// checksum trailer after them covers.
  std::string_view ConsumedSince(size_t start) const {
    return std::string_view(data_ + start, pos_ - start);
  }

 private:
  template <typename T>
  T ReadPod() {
    T value{};
    if (!HasRemaining(sizeof(T))) return value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  // `count` consecutive values; checked against the bytes left before the
  // vector is allocated, so a corrupt count cannot reserve gigabytes.
  template <typename T>
  std::vector<T> ReadPodArray(uint64_t count) {
    if (failed_ || count > remaining() / sizeof(T)) {
      Fail();
      return {};
    }
    std::vector<T> values(static_cast<size_t>(count));
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (count == 0) return values;
    const size_t bytes = static_cast<size_t>(count) * sizeof(T);
    std::memcpy(values.data(), data_ + pos_, bytes);
    pos_ += bytes;
    return values;
  }

  bool HasRemaining(uint64_t bytes) {
    if (failed_ || bytes > size_ - pos_) {
      Fail();
      return false;
    }
    return true;
  }

  void Fail() { failed_ = true; }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace geodp

#endif  // GEODP_TENSOR_BYTE_IO_H_
