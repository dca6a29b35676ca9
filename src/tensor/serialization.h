// Binary serialization of tensors: a small versioned little-endian record
// ("GDPT"): magic, version, ndim, extents, raw float32 data, and (since
// v2) an integrity trailer — payload length + CRC-32 — so truncated or
// bit-flipped records fail with a clear Status instead of yielding
// garbage. v1 records (no trailer) remain readable. Model checkpoints
// (nn/checkpoint.h) store one record per parameter.

#ifndef GEODP_TENSOR_SERIALIZATION_H_
#define GEODP_TENSOR_SERIALIZATION_H_

#include "base/status.h"
#include "tensor/byte_io.h"
#include "tensor/tensor.h"

namespace geodp {

/// Appends the tensor's GDPT v2 record to `out`.
void WriteTensorRecord(const Tensor& tensor, ByteWriter& out);

/// Reads one GDPT record (v1 or v2) at the reader's position, leaving the
/// reader just past it.
StatusOr<Tensor> ReadTensorRecord(ByteReader& in);

}  // namespace geodp

#endif  // GEODP_TENSOR_SERIALIZATION_H_
