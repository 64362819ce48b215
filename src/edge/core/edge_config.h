#ifndef EDGE_CORE_EDGE_CONFIG_H_
#define EDGE_CORE_EDGE_CONFIG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "edge/common/status.h"
#include "edge/embedding/entity2vec.h"
#include "edge/nn/mdn.h"
#include "edge/nn/optimizer.h"

namespace edge::core {

/// Crash-safety and divergence-recovery knobs for EdgeModel::Fit()
/// (DESIGN.md §12). All defaults leave recovery off; an unconfigured Fit is
/// byte-for-byte the legacy training loop.
struct TrainRecoveryOptions {
  /// Directory for the training-state checkpoint (weights + Adam moments +
  /// RNG + epoch cursor). Empty disables checkpointing and resume.
  std::string checkpoint_dir;

  /// Write a checkpoint every this many completed epochs.
  int checkpoint_every = 1;

  /// When a compatible checkpoint exists in checkpoint_dir, continue from it
  /// instead of starting at epoch 0. The resumed run reproduces the
  /// uninterrupted run's loss history bitwise.
  bool resume = true;

  /// Stop gracefully (writing a final checkpoint) after this many epochs in
  /// this process, independent of EdgeConfig::epochs — time-boxed training.
  /// 0 = run to completion. Because EdgeConfig::epochs still anchors the LR
  /// schedule, a later resumed run continues the same schedule.
  int max_epochs_per_run = 0;

  /// Divergence sentinel budget: how many times a non-finite epoch (or a
  /// grad-norm spike, below) may trigger rollback-and-retry with a halved
  /// learning rate before Fit() gives up and keeps the last good state.
  int max_rollbacks = 3;

  /// When > 0, an epoch whose mean grad norm exceeds this factor times the
  /// last good epoch's is treated as divergence. 0 disables the spike check
  /// (non-finite loss is always treated as divergence).
  double grad_spike_factor = 0.0;

  /// Optional cooperative stop: when non-null and set, Fit() finishes the
  /// current epoch, writes a final checkpoint, and returns. Signal handlers
  /// in tools flip this.
  const std::atomic<bool>* stop_flag = nullptr;
};

/// Full configuration of the EDGE pipeline. Defaults follow §IV-B (Adam with
/// learning rate 0.01 and weight decay 0.01, two GCN layers, M = 4 mixture
/// components); sizes are scaled for CPU benches and swept by the Fig. 6
/// sensitivity bench. The ablations of Table IV are configuration points:
///   NoGCN      -> gcn_hidden = {}
///   SUM        -> use_attention = false
///   NoMixture  -> num_components = 1
struct EdgeConfig {
  EdgeConfig() {
    // Tweet corpora are small next to word2vec's usual billions of tokens:
    // frequent-token subsampling would delete exactly the popular entities
    // the model needs, and many epochs are cheap. Measured on the synthetic
    // worlds these two settings cut the median error by ~3x (embedding
    // quality is the binding constraint at CPU scale; see EXPERIMENTS.md).
    entity2vec.subsample_threshold = 0.0;
    entity2vec.epochs = 50;
    adam.weight_decay = 1e-4;  // See the comment at `adam` below.
  }

  /// Row label in result tables ("EDGE", "NoGCN", ...).
  std::string display_name = "EDGE";

  /// Node-feature source for the GCN input matrix X.
  enum class FeatureMode {
    /// entity2vec semantic embeddings (the paper's design).
    kEntity2Vec,
    /// One-hot node identity — an ablation that removes semantic sharing
    /// between entities and lets the model memorize each training entity's
    /// location directly.
    kIdentity,
  };
  FeatureMode feature_mode = FeatureMode::kEntity2Vec;

  /// When true (default), embedding_dim and the GCN widths are picked at
  /// Fit() time from the training entity count (96 for graphs of >= 300
  /// entities, 64 below) — mirroring how the paper's fixed 400 dims relate
  /// to its much larger entity vocabularies. Set false to use the explicit
  /// values below (the Fig. 6 sweeps do).
  bool auto_dim = true;
  /// entity2vec embedding length (paper default 400; bench default 96).
  size_t embedding_dim = 96;
  /// GCN layer output widths; {96, 96} = the paper's two-layer network at
  /// our scale. Entries are replaced by the auto width when auto_dim is on
  /// (an empty list still means NoGCN).
  std::vector<size_t> gcn_hidden = {96, 96};
  /// Number of Gaussian mixture components M.
  size_t num_components = 4;
  /// Attention aggregation (Eq. 2-4) vs plain summation (SUM ablation).
  bool use_attention = true;

  /// Training schedule.
  int epochs = 100;
  size_t batch_size = 128;
  /// Linearly decay the learning rate to lr/10 over training; constant-lr
  /// Adam leaves the head jittering at a precision floor of ~1 km.
  bool lr_decay = true;
  double grad_clip_norm = 5.0;
  /// lr = 0.01 per the paper. Weight decay deviates (paper: 0.01): with our
  /// scaled-down corpora and standardized targets, 0.01 L2 collapses the
  /// head toward the global mixture (measured +1 km median); 1e-4 keeps the
  /// regularization without the collapse. DESIGN.md section 4.
  nn::AdamOptions adam;

  /// entity2vec training options; its dim is overridden by embedding_dim.
  embedding::Entity2VecOptions entity2vec;

  /// MDN stability floors. The sigma floor also regularizes Eq. 14's mode
  /// finding: without it, near-degenerate components grab the density argmax.
  double sigma_min_km = 0.3;
  double rho_max = 0.995;

  uint64_t seed = 123;

  /// Crash-safe checkpointing, resume, and divergence rollback (all off by
  /// default; see TrainRecoveryOptions).
  TrainRecoveryOptions recovery;

  /// Worker-thread budget for Fit() and batched prediction: 0 = hardware
  /// concurrency, 1 = exact single-threaded legacy behaviour (default),
  /// n > 1 = at most n-way. The dense/sparse kernels are bitwise
  /// deterministic at every budget (see edge/common/thread_pool.h) and
  /// entity2vec always trains serially, so any value reproduces the
  /// num_threads = 1 numbers.
  int num_threads = 1;

  /// Checks internal consistency.
  Status Validate() const;

  /// Convenience constructors for the Table IV ablations.
  static EdgeConfig NoGcn();
  static EdgeConfig SumAggregation();
  static EdgeConfig NoMixture();
};

}  // namespace edge::core

#endif  // EDGE_CORE_EDGE_CONFIG_H_
