// Model checkpointing: saves and restores a layer's parameters (by name
// and shape) using the tensor serialization format.

#ifndef GEODP_NN_CHECKPOINT_H_
#define GEODP_NN_CHECKPOINT_H_

#include <string>

#include "base/status.h"
#include "nn/module.h"

namespace geodp {

/// Writes all parameters of `model` to `path`. The file records each
/// parameter's name, so restoring into a structurally identical model is
/// verified by name and shape.
Status SaveCheckpoint(Layer& model, const std::string& path);

/// Restores parameters saved by SaveCheckpoint. Fails (without mutating
/// the model) if names, order, count or shapes do not match, if any record
/// is corrupt, or if bytes follow the last parameter.
Status LoadCheckpoint(Layer& model, const std::string& path);

}  // namespace geodp

#endif  // GEODP_NN_CHECKPOINT_H_
