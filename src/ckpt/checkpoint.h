// Durable full-state training checkpoints (GDPK format).
//
// A TrainingCheckpoint captures EVERYTHING the training loop needs to
// continue bit-identically after a crash: model parameters, optimizer
// moments, every RNG stream, sampler positions, the privacy accountant and
// ledger, the adaptive-beta envelope, and the partial TrainingResult.
// Resuming from step k and running to T produces byte-identical metrics
// JSONL, model weights, and epsilon to an uninterrupted run — the repo's
// headline crash-safety guarantee (docs/fault_tolerance.md).
//
// File format (little-endian):
//   "GDPK"            magic, 4 bytes
//   u32  version      currently 1
//   u64  payload_len  byte length of the payload section
//   payload           ByteWriter-encoded fields (checkpoint.cc)
//   u32  crc32        CRC-32 (IEEE) of the payload bytes
//
// Durability protocol: the file is written to "<path>.tmp", flushed,
// fsynced, then renamed over the final path (atomic on POSIX), and the
// directory is fsynced. A crash at any point leaves either the previous
// checkpoint or the new one — never a half-written final file. Corruption
// that slips through anyway (torn writes on non-POSIX semantics, bit rot)
// is caught by the length/CRC checks, and FindLatestGoodCheckpoint falls
// back to the newest checkpoint that still validates.

#ifndef GEODP_CKPT_CHECKPOINT_H_
#define GEODP_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "data/dataloader.h"
#include "dp/privacy_ledger.h"
#include "optim/adaptive_beta.h"
#include "optim/dp_adam.h"
#include "optim/techniques.h"
#include "tensor/tensor.h"

namespace geodp {

/// Complete training state at an attempt boundary. Plain data; the trainer
/// fills and consumes it (optim/trainer.cc).
struct TrainingCheckpoint {
  // -- Progress --------------------------------------------------------
  int64_t next_attempt = 0;      // first attempt index not yet executed
  int64_t accepted_updates = 0;  // training iterations completed

  // -- Partial TrainingResult ------------------------------------------
  std::vector<int64_t> loss_iterations;
  std::vector<double> loss_history;
  int64_t empty_lots = 0;
  int64_t nonfinite_skipped = 0;
  int64_t sur_accepted = 0;
  int64_t sur_rejected = 0;
  double current_beta = 0.0;

  // -- Model parameters (names validated on restore) -------------------
  std::vector<std::string> param_names;
  std::vector<Tensor> param_values;

  // -- RNG streams and samplers ----------------------------------------
  RngState noise_rng;
  BatchSamplerState uniform_sampler;
  RngState poisson_rng;
  ImportanceSamplerState importance_sampler;

  // -- Optimizer -------------------------------------------------------
  FlatAdamState adam;

  // -- Privacy accounting ----------------------------------------------
  std::vector<int64_t> accountant_orders;
  std::vector<double> accountant_rdp;
  int64_t accountant_steps = 0;
  std::vector<PrivacyEvent> ledger_events;

  // -- Adaptive beta ---------------------------------------------------
  AdaptiveBetaState beta_controller;

  // -- Configuration fingerprint ---------------------------------------
  // Canonical string of every option that affects the trajectory
  // (trainer.cc builds it; `iterations` is deliberately excluded so a
  // resumed run may extend training). Resume refuses a mismatch.
  std::string options_fingerprint;
};

/// Canonical file name for a checkpoint taken with `next_attempt` attempts
/// completed: "ckpt_<zero-padded attempt>.gdpk". Zero padding makes
/// lexicographic order equal numeric order.
std::string CheckpointFileName(int64_t next_attempt);

/// Canonical file name for a flight-recorder postmortem dump written next
/// to the checkpoints: "postmortem-<zero-padded step>.json". Deliberately
/// outside the "ckpt_*.gdpk" pattern, so checkpoint scanning never touches
/// postmortems; PruneOldCheckpoints bounds them separately.
std::string PostmortemFileName(int64_t step);

/// Serializes `checkpoint` and writes it durably to `path` using the
/// temp-file + fsync + rename protocol above (base/io/file_io.h). Creates
/// the parent directory if needed. Honors the "ckpt.before_write" /
/// "ckpt.write" / "ckpt.write_io" / "ckpt.before_rename" fail points
/// (base/fault_injection.h); transient errnos at "ckpt.write_io" are
/// retried per the default RetryPolicy.
Status SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                              const std::string& path);

/// Reads and validates a checkpoint file. Any structural problem —
/// truncation, bad magic, unknown version, length mismatch, CRC mismatch,
/// malformed payload — yields a descriptive non-OK Status, never a crash.
StatusOr<TrainingCheckpoint> LoadTrainingCheckpoint(const std::string& path);

/// Result of scanning a checkpoint directory.
struct FoundCheckpoint {
  TrainingCheckpoint checkpoint;
  std::string path;
  // Newer checkpoint files that failed validation and were skipped (e.g. a
  // torn write that slipped past rename atomicity).
  int64_t skipped_corrupt = 0;
};

/// Scans `dir` for "ckpt_*.gdpk" files and returns the newest one that
/// validates, skipping corrupt files. NotFound when the directory holds no
/// loadable checkpoint.
StatusOr<FoundCheckpoint> FindLatestGoodCheckpoint(const std::string& dir);

/// Deletes all but the newest `keep` checkpoint files in `dir`, and all
/// but the newest `keep` postmortem dumps. Keeping more than one means a
/// corrupt newest file still leaves a fallback. A run resumed from a
/// checkpoint passes its attempt as `resume_point`: the postmortem there
/// is the black box of the crash being recovered from, and is kept too.
/// Best-effort: unreadable directories or undeletable files are never
/// fatal — each failed unlink (including ones injected at the
/// "ckpt.prune" fail point) is counted in the returned error tally so
/// the trainer can surface it as the ckpt.prune_errors counter.
int64_t PruneOldCheckpoints(const std::string& dir, int64_t keep,
                            int64_t resume_point = -1);

}  // namespace geodp

#endif  // GEODP_CKPT_CHECKPOINT_H_
