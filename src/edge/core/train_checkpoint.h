#ifndef EDGE_CORE_TRAIN_CHECKPOINT_H_
#define EDGE_CORE_TRAIN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "edge/common/rng.h"
#include "edge/common/status.h"
#include "edge/core/edge_config.h"
#include "edge/nn/optimizer.h"

/// \file
/// Crash-safe training-state checkpoints (DESIGN.md §12). A TrainState holds
/// everything EdgeModel::Fit() needs to continue an interrupted run
/// bit-for-bit: parameter values, Adam moments, the training RNG, the epoch
/// cursor, and the divergence-recovery bookkeeping. Stages 1-4 of Fit are
/// pure functions of (dataset, seed) and are re-derived on resume rather
/// than stored.
///
/// Format `EDGE-TRAINSTATE v1`: line-oriented text at precision 17 (IEEE
/// doubles round-trip bitwise), terminated
/// by an `END <fnv1a64-hex>` checksum line over every preceding byte. The
/// checksum line makes torn writes detectable: every strict truncation
/// prefix of a valid file — and any bit flip before END — is rejected by
/// ParseTrainState with a Status, never an abort.

namespace edge::core {

/// Snapshot of an in-flight Fit() at an epoch boundary.
struct TrainState {
  /// Compatibility stamp (TrainFingerprint of config + dataset shape); a
  /// checkpoint only resumes a run it was written by.
  std::string fingerprint;

  /// First epoch the resumed run should execute.
  int next_epoch = 0;

  /// Divergence-recovery bookkeeping: multiplier applied to the base
  /// learning rate (halved per rollback), rollbacks consumed so far, and the
  /// last healthy epoch's mean gradient norm (spike baseline).
  double lr_scale = 1.0;
  int rollbacks_used = 0;
  double last_good_grad_norm = 0.0;

  Rng::State rng;

  /// Mean NLL of epochs [0, next_epoch).
  std::vector<double> loss_history;

  /// Parameter values in Fit's canonical order (GCN layers, attention q/b if
  /// attention is on, head W, head b).
  std::vector<nn::Matrix> params;

  nn::AdamState adam;
};

/// Deterministic compatibility stamp for a (config, dataset) pair. Two runs
/// with equal fingerprints execute identical training streams, so a
/// checkpoint from one can seed the other.
std::string TrainFingerprint(const EdgeConfig& config, size_t num_train_tweets,
                             size_t num_train_entities);

/// Renders `state` in the EDGE-TRAINSTATE v1 format (including the trailing
/// checksum line).
std::string SerializeTrainState(const TrainState& state);

/// Parses and validates a serialized TrainState. Truncations, bit flips,
/// bad magic, implausible sizes and non-finite values all come back as a
/// Status error.
Result<TrainState> ParseTrainState(const std::string& content);

/// Durably writes `state` to `path`: atomic temp-fsync-rename, then a
/// read-back verification (catching injected torn writes), retried with
/// backoff. Fault points: io.checkpoint.write, io.checkpoint.verify.
Status SaveTrainStateAtomic(const std::string& path, const TrainState& state);

/// Loads a checkpoint from `path`, retrying transient read faults. Fault
/// point: io.checkpoint.read.
Result<TrainState> LoadTrainState(const std::string& path);

}  // namespace edge::core

#endif  // EDGE_CORE_TRAIN_CHECKPOINT_H_
