#include "tensor/serialization.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/crc32.h"

namespace geodp {
namespace {

constexpr std::string_view kMagic = "GDPT";
// v1: magic, version, ndim, extents, raw float32 data.
// v2 appends an integrity trailer: u64 payload length (bytes from magic
// through the end of the data) and the CRC-32 of those bytes, so torn
// writes and bit flips fail loudly at read time. v1 records (no trailer)
// are still readable.
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kVersion = 2;
// Refuses absurd inputs so a corrupt header cannot trigger huge allocations.
constexpr uint32_t kMaxDims = 16;
constexpr int64_t kMaxElements = int64_t{1} << 34;

}  // namespace

void WriteTensorRecord(const Tensor& tensor, ByteWriter& out) {
  const size_t start = out.size();
  out.WriteBytes(kMagic);
  out.WriteU32(kVersion);
  out.WriteU32(static_cast<uint32_t>(tensor.ndim()));
  for (const int64_t extent : tensor.shape()) out.WriteI64(extent);
  out.WriteBytes(tensor.data(),
                 static_cast<size_t>(tensor.numel()) * sizeof(float));
  // Integrity trailer (v2): payload length then CRC-32 of the payload.
  const uint64_t payload_length = out.size() - start;
  const uint32_t checksum =
      Crc32(out.bytes().data() + start, payload_length);
  out.WriteU64(payload_length);
  out.WriteU32(checksum);
}

StatusOr<Tensor> ReadTensorRecord(ByteReader& in) {
  const size_t start = in.position();
  if (in.ReadBytes(kMagic.size()) != kMagic) {
    return Status::InvalidArgument("bad tensor magic");
  }
  const uint32_t version = in.ReadU32();
  if (in.failed() || (version != kLegacyVersion && version != kVersion)) {
    return Status::InvalidArgument("unsupported tensor version");
  }
  const uint32_t ndim = in.ReadU32();
  if (in.failed() || ndim > kMaxDims) {
    return Status::InvalidArgument("bad tensor rank");
  }
  std::vector<int64_t> shape(ndim);
  // An empty (default-constructed) tensor has rank 0 and holds no data;
  // it is not a rank-0 scalar.
  int64_t numel = ndim == 0 ? 0 : 1;
  for (int64_t& extent : shape) {
    extent = in.ReadI64();
    if (in.failed() || extent <= 0) {
      return Status::InvalidArgument("bad tensor extent");
    }
    if (extent > kMaxElements / numel) {
      return Status::InvalidArgument("tensor too large");
    }
    numel *= extent;
  }
  // ReadFloats checks the claimed extent against the bytes actually
  // present before allocating.
  std::vector<float> data = in.ReadFloats(static_cast<uint64_t>(numel));
  if (in.failed()) return Status::InvalidArgument("truncated tensor data");
  if (version == kVersion) {
    const std::string_view payload = in.ConsumedSince(start);
    const uint64_t stored_length = in.ReadU64();
    const uint32_t stored_crc = in.ReadU32();
    if (in.failed()) {
      return Status::InvalidArgument("truncated tensor trailer");
    }
    if (stored_length != payload.size()) {
      return Status::InvalidArgument("tensor payload length mismatch");
    }
    if (stored_crc != Crc32(payload.data(), payload.size())) {
      return Status::InvalidArgument("tensor checksum mismatch");
    }
  }
  // A rank-0 record is an empty (default-constructed) tensor;
  // FromVector would treat the empty shape as a scalar.
  if (shape.empty()) return Tensor();
  return Tensor::FromVector(std::move(shape), std::move(data));
}

}  // namespace geodp
