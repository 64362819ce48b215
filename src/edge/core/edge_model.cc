#include "edge/core/edge_model.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "edge/common/file_util.h"
#include "edge/common/math_util.h"
#include "edge/core/model_store.h"
#include "edge/common/rng.h"
#include "edge/common/stopwatch.h"
#include "edge/common/thread_pool.h"
#include "edge/core/train_checkpoint.h"
#include "edge/fault/fault.h"
#include "edge/nn/autodiff.h"
#include "edge/nn/init.h"
#include "edge/nn/mdn.h"
#include "edge/nn/optimizer.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"

namespace edge::core {

namespace {

/// Converts activated MDN parameters (already in the km plane) into the geo
/// mixture object.
geo::GaussianMixture2d ToGeoMixture(const nn::MdnMixture& mix) {
  std::vector<geo::Gaussian2d> components;
  std::vector<double> weights;
  for (size_t m = 0; m < mix.num_components(); ++m) {
    components.emplace_back(geo::PlanePoint{mix.mean_x[m], mix.mean_y[m]},
                            mix.sigma_x[m], mix.sigma_y[m], mix.rho[m]);
    weights.push_back(std::max(mix.weight[m], 1e-12));
  }
  return geo::GaussianMixture2d(std::move(components), std::move(weights));
}

}  // namespace

EdgeModel::EdgeModel(EdgeConfig config) : config_(std::move(config)) {
  Status status = config_.Validate();
  EDGE_CHECK(status.ok()) << status.ToString();
}

const geo::LocalProjection& EdgeModel::projection() const {
  EDGE_CHECK(projection_ != nullptr) << "model not fitted";
  return *projection_;
}

size_t EdgeModel::NodeIdOf(std::string_view name) const {
  if (store_ != nullptr) {
    size_t id = store_->NodeId(name);
    return id == MmapModelStore::kNotFound ? graph::EntityGraph::kNotFound : id;
  }
  return graph_.NodeId(name);
}

std::string_view EdgeModel::NodeNameOf(size_t id) const {
  if (store_ != nullptr) return store_->NodeName(id);
  return graph_.NodeName(id);
}

size_t EdgeModel::num_entities() const {
  return store_ != nullptr ? store_->num_nodes() : graph_.num_nodes();
}

size_t EdgeModel::hidden_dim() const {
  return store_ != nullptr ? store_->hidden() : smoothed_embeddings_.cols();
}

nn::ConstRowSpan EdgeModel::EmbeddingRowOf(size_t node,
                                           std::vector<double>* scratch) const {
  if (store_ != nullptr) return store_->EmbeddingRow(node, scratch);
  return smoothed_embeddings_.RowSpan(node);
}

std::vector<size_t> EdgeModel::GraphIds(const data::ProcessedTweet& tweet) const {
  std::vector<size_t> ids;
  for (const text::Entity& e : tweet.entities) {
    size_t id = NodeIdOf(e.name);
    if (id != graph::EntityGraph::kNotFound) ids.push_back(id);
  }
  // Canonical ascending-id order: attention/aggregation are mathematically
  // permutation-invariant, but fixing the floating-point summation order
  // makes the prediction a pure function of the entity set (not the mention
  // order) — the property the serve-layer cache keys on.
  std::sort(ids.begin(), ids.end());
  return ids;
}

void EdgeModel::Fit(const data::ProcessedDataset& dataset) {
  EDGE_CHECK(!fitted_) << "Fit() may only be called once";
  EDGE_CHECK(!dataset.train.empty()) << "empty training split";
  fitted_ = true;
  EDGE_TRACE_SPAN("edge.core.fit");
  Stopwatch fit_watch;
  EDGE_LOG(INFO) << "fit start" << obs::Kv("model", config_.display_name)
                 << obs::Kv("train", dataset.train.size())
                 << obs::Kv("entities", dataset.train_entity_names.size())
                 << obs::Kv("epochs", config_.epochs);
  // Scope the global kernel budget to this model's setting for the whole fit
  // (dense matmul, CSR propagation and their backward passes all consult it).
  ScopedNumThreads scoped_threads(config_.num_threads);
  Rng rng(config_.seed);

  if (config_.auto_dim) {
    // Scale capacity with the entity vocabulary (see EdgeConfig::auto_dim).
    size_t width = dataset.train_entity_names.size() >= 300 ? 96 : 64;
    config_.embedding_dim = width;
    for (size_t& layer_width : config_.gcn_hidden) layer_width = width;
  }

  // --- Stage 1: entity2vec semantic embeddings (§III-A1). ---
  embedding::Entity2VecOptions e2v_options = config_.entity2vec;
  e2v_options.dim = config_.embedding_dim;
  e2v_options.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;
  // The model-level budget wins; whether shards actually run concurrently is
  // still gated by e2v_options.deterministic (default: stay reproducible).
  e2v_options.num_threads = config_.num_threads;
  entity2vec_ = std::make_unique<embedding::Entity2Vec>(e2v_options);
  {
    EDGE_TRACE_SPAN("edge.core.fit.entity2vec");
    std::vector<std::vector<std::string>> corpus;
    corpus.reserve(dataset.train.size());
    for (const data::ProcessedTweet& t : dataset.train) corpus.push_back(t.tokens);
    entity2vec_->Train(corpus);
  }

  // --- Stage 2: co-occurrence entity graph (§III-A2). ---
  {
    EDGE_TRACE_SPAN("edge.core.fit.entity_graph");
    std::vector<std::vector<std::string>> entity_sets;
    entity_sets.reserve(dataset.train.size());
    for (const data::ProcessedTweet& t : dataset.train) {
      std::vector<std::string> names;
      names.reserve(t.entities.size());
      for (const text::Entity& e : t.entities) names.push_back(e.name);
      entity_sets.push_back(std::move(names));
    }
    graph_ = graph::EntityGraph::Build(entity_sets);
  }
  normalized_adjacency_ = graph_.NormalizedAdjacency();

  // Node features: entity2vec rows (the paper's design) or one-hot identity
  // (the kIdentity ablation). Entities the embedder never saw (e.g.
  // capitalization-chunked names outside the token stream) get small noise.
  size_t feature_dim = config_.feature_mode == EdgeConfig::FeatureMode::kIdentity
                           ? graph_.num_nodes()
                           : config_.embedding_dim;
  nn::Matrix features(graph_.num_nodes(), feature_dim);
  if (config_.feature_mode == EdgeConfig::FeatureMode::kIdentity) {
    for (size_t node = 0; node < graph_.num_nodes(); ++node) {
      features.At(node, node) = 1.0;
    }
  } else {
    for (size_t node = 0; node < graph_.num_nodes(); ++node) {
      std::vector<double> emb = entity2vec_->EmbeddingOf(graph_.NodeName(node));
      if (emb.empty()) {
        for (size_t d = 0; d < feature_dim; ++d) {
          features.At(node, d) = rng.Normal(0.0, 0.01);
        }
      } else {
        for (size_t d = 0; d < feature_dim; ++d) features.At(node, d) = emb[d];
      }
    }
  }

  // --- Stage 3: targets in the local km plane. ---
  projection_ = std::make_unique<geo::LocalProjection>(dataset.region.Center());
  std::vector<geo::PlanePoint> targets;
  targets.reserve(dataset.train.size());
  for (const data::ProcessedTweet& t : dataset.train) {
    targets.push_back(projection_->ToPlane(t.location));
  }
  {
    double sx = 0.0;
    double sy = 0.0;
    for (const geo::PlanePoint& p : targets) {
      sx += p.x;
      sy += p.y;
    }
    fallback_mean_ = {sx / static_cast<double>(targets.size()),
                      sy / static_cast<double>(targets.size())};
    double var = 0.0;
    for (const geo::PlanePoint& p : targets) {
      var += (p.x - fallback_mean_.x) * (p.x - fallback_mean_.x) +
             (p.y - fallback_mean_.y) * (p.y - fallback_mean_.y);
    }
    fallback_sigma_km_ =
        std::max(1.0, std::sqrt(var / (2.0 * static_cast<double>(targets.size()))));
    // Standardize: train the MDN in units of the data spread (see header).
    coord_scale_km_ = fallback_sigma_km_;
    for (geo::PlanePoint& p : targets) {
      p.x /= coord_scale_km_;
      p.y /= coord_scale_km_;
    }
  }

  graph::GcnInput gcn_input(&normalized_adjacency_, std::move(features));

  // --- Stage 4: trainable parameters. ---
  std::vector<size_t> dims = {feature_dim};
  for (size_t width : config_.gcn_hidden) dims.push_back(width);
  graph::GcnStack gcn(dims, &rng);
  size_t hidden = dims.back();
  size_t theta_dim = 6 * config_.num_components;

  nn::Var attn_q = nn::Param(nn::XavierUniform(hidden, 1, &rng));
  nn::Var attn_b = nn::Param(nn::Matrix::Zeros(1, 1));
  nn::Var head_w = nn::Param(nn::XavierUniform(hidden, theta_dim, &rng));
  nn::Var head_b = nn::Param(nn::Matrix::Zeros(1, theta_dim));
  {
    // Spread initial component means over the training extent and start the
    // spreads at ~2 km so early responsibilities are informative.
    double min_x = targets[0].x, max_x = targets[0].x;
    double min_y = targets[0].y, max_y = targets[0].y;
    for (const geo::PlanePoint& p : targets) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    size_t mc = config_.num_components;
    double sigma_init = SoftplusInverse(2.0 / coord_scale_km_);
    for (size_t m = 0; m < mc; ++m) {
      head_b->value.At(0, m) = rng.Uniform(min_x, max_x);
      head_b->value.At(0, mc + m) = rng.Uniform(min_y, max_y);
      head_b->value.At(0, 2 * mc + m) = sigma_init;
      head_b->value.At(0, 3 * mc + m) = sigma_init;
      // rho and pi raw parameters start at zero.
    }
  }

  std::vector<nn::Var> params = gcn.Params();
  if (config_.use_attention) {
    // The SUM ablation never puts q/b on the tape; handing the optimizer
    // parameters that receive no gradients would trip its safety check.
    params.push_back(attn_q);
    params.push_back(attn_b);
  }
  params.push_back(head_w);
  params.push_back(head_b);
  nn::Adam adam(params, config_.adam);

  nn::MdnOptions mdn_options;
  mdn_options.num_components = config_.num_components;
  mdn_options.sigma_min = config_.sigma_min_km / coord_scale_km_;
  mdn_options.rho_max = config_.rho_max;

  // Precompute each tweet's in-graph node ids (training tweets always have
  // at least one entity by the §IV-A filter).
  std::vector<std::vector<size_t>> tweet_ids(dataset.train.size());
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    tweet_ids[i] = GraphIds(dataset.train[i]);
    EDGE_CHECK(!tweet_ids[i].empty()) << "training tweet with no graph entity";
  }

  // --- Stage 5: end-to-end training (Eq. 13) with crash-safe recovery. ---
  // Per-epoch telemetry: the NLL/grad-norm series are what convergence tests
  // and the MDN-baseline comparisons read back (metric scheme in DESIGN.md).
  obs::Registry& registry = obs::Registry::Global();
  obs::Series* nll_series = registry.GetSeries("edge.core.epoch_nll");
  obs::Series* grad_norm_series = registry.GetSeries("edge.core.epoch_grad_norm");
  obs::Histogram* epoch_seconds = registry.GetHistogram("edge.core.epoch_seconds");
  obs::Counter* rollback_counter = registry.GetCounter("edge.core.rollbacks");
  obs::Gauge* lr_scale_gauge = registry.GetGauge("edge.core.lr_scale");
  // Sliding-window view of training progress, for the --metrics-export live
  // snapshot: recent epoch times (epochs can take whole seconds, so the
  // buckets stretch well past the latency defaults) and a tweets-trained
  // counter whose windowed rate is the live throughput in tweets/second.
  obs::WindowedHistogram::Options epoch_window_options;
  epoch_window_options.bounds = {0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
                                 2.5,  5.0,  10.0, 30.0, 60.0};
  obs::WindowedHistogram* window_epoch_seconds = registry.GetWindowedHistogram(
      "edge.core.window.epoch_seconds", epoch_window_options);
  obs::WindowedCounter* window_tweets =
      registry.GetWindowedCounter("edge.core.window.tweets_trained");

  // Recovery bookkeeping (DESIGN.md §12). Stages 1-4 above are pure functions
  // of (dataset, seed), so a checkpoint only needs the mutable training state:
  // parameter values, Adam moments, the RNG, the epoch cursor, and the
  // rollback ledger. capture/restore move all of it atomically, which serves
  // both the on-disk checkpoint and the in-memory divergence snapshot.
  const TrainRecoveryOptions& recovery = config_.recovery;
  const std::string checkpoint_path =
      recovery.checkpoint_dir.empty() ? ""
                                      : recovery.checkpoint_dir + "/train_state.edge";
  const std::string fingerprint =
      TrainFingerprint(config_, dataset.train.size(),
                       dataset.train_entity_names.size());
  double lr_scale = 1.0;
  int rollbacks_used = 0;
  double last_good_grad_norm = 0.0;
  int start_epoch = 0;

  auto capture = [&](int next_epoch) {
    TrainState state;
    state.fingerprint = fingerprint;
    state.next_epoch = next_epoch;
    state.lr_scale = lr_scale;
    state.rollbacks_used = rollbacks_used;
    state.last_good_grad_norm = last_good_grad_norm;
    state.rng = rng.SaveState();
    state.loss_history = loss_history_;
    state.params.reserve(params.size());
    for (const nn::Var& p : params) state.params.push_back(p->value);
    state.adam = adam.ExportState();
    return state;
  };
  auto shapes_match = [&](const TrainState& state) {
    if (state.params.size() != params.size()) return false;
    for (size_t i = 0; i < params.size(); ++i) {
      if (state.params[i].rows() != params[i]->value.rows() ||
          state.params[i].cols() != params[i]->value.cols()) {
        return false;
      }
    }
    return true;
  };
  auto restore = [&](const TrainState& state) {
    lr_scale = state.lr_scale;
    rollbacks_used = state.rollbacks_used;
    last_good_grad_norm = state.last_good_grad_norm;
    rng.RestoreState(state.rng);
    loss_history_ = state.loss_history;
    for (size_t i = 0; i < params.size(); ++i) params[i]->value = state.params[i];
    adam.ImportState(state.adam);
  };

  if (!checkpoint_path.empty() && recovery.resume && FileExists(checkpoint_path)) {
    Result<TrainState> loaded = LoadTrainState(checkpoint_path);
    if (!loaded.ok()) {
      EDGE_LOG(WARN) << "checkpoint unusable; training from scratch"
                     << obs::Kv("path", checkpoint_path)
                     << obs::Kv("error", loaded.status().ToString());
    } else if (loaded.value().fingerprint != fingerprint) {
      EDGE_LOG(WARN) << "checkpoint fingerprint mismatch; training from scratch"
                     << obs::Kv("path", checkpoint_path);
    } else if (!shapes_match(loaded.value()) ||
               loaded.value().next_epoch > config_.epochs) {
      EDGE_LOG(WARN) << "checkpoint shape mismatch; training from scratch"
                     << obs::Kv("path", checkpoint_path);
    } else {
      restore(loaded.value());
      start_epoch = loaded.value().next_epoch;
      registry.GetCounter("edge.core.resumes")->Increment();
      obs::RecordInstant("edge.core.resume");
      EDGE_LOG(INFO) << "resumed from checkpoint" << obs::Kv("path", checkpoint_path)
                     << obs::Kv("epoch", start_epoch)
                     << obs::Kv("rollbacks_used", rollbacks_used);
    }
  }
  lr_scale_gauge->Set(lr_scale);

  Stopwatch epoch_watch;
  std::vector<size_t> order(dataset.train.size());
  // Per-step scratch: the batch's distinct node ids (ascending) and, per
  // node, its row in the GCN output the step computes.
  std::vector<size_t> batch_nodes;
  std::vector<size_t> node_row(graph_.num_nodes());
  TrainState last_good = capture(start_epoch);
  int epochs_this_run = 0;
  int epoch = start_epoch;
  while (epoch < config_.epochs) {
    EDGE_TRACE_SPAN("edge.core.fit.epoch");
    // lr_scale is 1.0 until a rollback, so the unfaulted schedule is bitwise
    // the legacy one (x * 1.0 == x for finite x).
    double lr = config_.adam.learning_rate * lr_scale;
    if (config_.lr_decay) {
      double progress = static_cast<double>(epoch) / static_cast<double>(config_.epochs);
      lr *= 1.0 - 0.9 * progress;
    }
    adam.set_learning_rate(lr);
    // Each epoch's visit order is shuffled from the identity permutation, not
    // from the previous epoch's order: the order must be a pure function of
    // the RNG state so a resumed run reproduces the batch composition the
    // uninterrupted run would have used.
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    double epoch_grad_norm = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < order.size(); start += config_.batch_size) {
      size_t end = std::min(order.size(), start + config_.batch_size);
      size_t batch = end - start;

      // The step's loss reads the GCN output only at its tweets' entities,
      // so the last layer is evaluated for those nodes alone (exact; see
      // GcnStack::Forward) and one pooling node serves the whole batch.
      batch_nodes.clear();
      for (size_t b = start; b < end; ++b) {
        const std::vector<size_t>& ids = tweet_ids[order[b]];
        batch_nodes.insert(batch_nodes.end(), ids.begin(), ids.end());
      }
      std::sort(batch_nodes.begin(), batch_nodes.end());
      batch_nodes.erase(std::unique(batch_nodes.begin(), batch_nodes.end()),
                        batch_nodes.end());
      for (size_t row = 0; row < batch_nodes.size(); ++row) {
        node_row[batch_nodes[row]] = row;
      }
      std::vector<std::vector<size_t>> tweet_rows(batch);
      nn::Matrix batch_targets(batch, 2);
      for (size_t b = 0; b < batch; ++b) {
        size_t tweet = order[start + b];
        for (size_t id : tweet_ids[tweet]) tweet_rows[b].push_back(node_row[id]);
        batch_targets.At(b, 0) = targets[tweet].x;
        batch_targets.At(b, 1) = targets[tweet].y;
      }
      nn::Var h = gcn.Forward(gcn_input, batch_nodes);
      nn::Var z_batch = nn::PoolRows(h, std::move(tweet_rows),
                                     config_.use_attention ? attn_q : nullptr,
                                     config_.use_attention ? attn_b : nullptr);
      EDGE_TRACE_SPAN("edge.core.fit.mdn_head");
      nn::Var theta = nn::AddRowBroadcast(nn::MatMul(z_batch, head_w), head_b);
      nn::Var loss = nn::BivariateMdnLoss(theta, batch_targets, mdn_options);
      nn::Backward(loss);
      epoch_grad_norm += nn::ClipGradientNorm(params, config_.grad_clip_norm);
      adam.Step();
      epoch_loss += loss->value.At(0, 0);
      ++batches;
    }
    double mean_nll = epoch_loss / static_cast<double>(batches);
    double mean_grad_norm = epoch_grad_norm / static_cast<double>(batches);
    if (EDGE_FAULT_POINT("train.diverge") == fault::Action::kError) {
      mean_nll = std::numeric_limits<double>::quiet_NaN();  // Divergence drill.
    }

    // Divergence sentinel: a non-finite epoch (or a grad-norm spike when the
    // spike factor is configured) rolls back to the last good snapshot, halves
    // the learning rate, and retries — bounded by max_rollbacks, after which
    // the last good state is kept. Fit never aborts on divergence.
    bool diverged =
        !std::isfinite(mean_nll) || !std::isfinite(mean_grad_norm) ||
        (recovery.grad_spike_factor > 0.0 && last_good_grad_norm > 0.0 &&
         mean_grad_norm > recovery.grad_spike_factor * last_good_grad_norm);
    if (diverged) {
      if (rollbacks_used < recovery.max_rollbacks) {
        restore(last_good);
        lr_scale *= 0.5;
        ++rollbacks_used;
        last_good.lr_scale = lr_scale;
        last_good.rollbacks_used = rollbacks_used;
        rollback_counter->Increment();
        obs::RecordInstant("edge.core.rollback");
        lr_scale_gauge->Set(lr_scale);
        EDGE_LOG(WARN) << "epoch diverged; rolled back"
                       << obs::Kv("epoch", epoch) << obs::Kv("nll", mean_nll)
                       << obs::Kv("grad_norm", mean_grad_norm)
                       << obs::Kv("lr_scale", lr_scale)
                       << obs::Kv("rollbacks_used", rollbacks_used);
        epoch = last_good.next_epoch;
        continue;
      }
      registry.GetCounter("edge.core.divergence_giveups")->Increment();
      obs::RecordInstant("edge.core.divergence_giveup");
      EDGE_LOG(ERROR) << "divergence rollback budget exhausted; keeping last "
                         "good state"
                      << obs::Kv("epoch", epoch)
                      << obs::Kv("rollbacks_used", rollbacks_used);
      restore(last_good);
      break;
    }

    double seconds = epoch_watch.LapSeconds();
    loss_history_.push_back(mean_nll);
    nll_series->Append(mean_nll);
    grad_norm_series->Append(mean_grad_norm);
    epoch_seconds->Observe(seconds);
    window_epoch_seconds->Observe(seconds);
    window_tweets->Increment(static_cast<int64_t>(order.size()));
    last_good_grad_norm = mean_grad_norm;
    EDGE_LOG(DEBUG) << "epoch done" << obs::Kv("epoch", epoch)
                    << obs::Kv("nll", mean_nll)
                    << obs::Kv("grad_norm", mean_grad_norm)
                    << obs::Kv("sec", seconds);
    ++epoch;
    ++epochs_this_run;
    last_good = capture(epoch);

    bool stop_requested =
        recovery.stop_flag != nullptr &&
        recovery.stop_flag->load(std::memory_order_relaxed);
    bool run_budget_done = recovery.max_epochs_per_run > 0 &&
                           epochs_this_run >= recovery.max_epochs_per_run;
    if (!checkpoint_path.empty() &&
        (epoch % recovery.checkpoint_every == 0 || epoch == config_.epochs ||
         stop_requested || run_budget_done)) {
      Status status = SaveTrainStateAtomic(checkpoint_path, last_good);
      if (status.ok()) {
        registry.GetCounter("edge.core.checkpoints_written")->Increment();
        obs::RecordInstant("edge.core.checkpoint");
      } else {
        // Checkpointing is best-effort: a persistently failing disk must not
        // kill an otherwise healthy training run.
        registry.GetCounter("edge.core.checkpoint_failures")->Increment();
        obs::RecordInstant("edge.core.checkpoint_failure");
        EDGE_LOG(WARN) << "checkpoint write failed"
                       << obs::Kv("path", checkpoint_path)
                       << obs::Kv("error", status.ToString());
      }
    }
    if (stop_requested || run_budget_done) {
      EDGE_LOG(INFO) << "training stopped gracefully"
                     << obs::Kv("epoch", epoch)
                     << obs::Kv("reason", stop_requested ? "stop_flag" : "run_budget");
      break;
    }
  }

  // --- Stage 6: cache dense inference state. ---
  {
    EDGE_TRACE_SPAN("edge.core.fit.cache_inference");
    smoothed_embeddings_ = gcn.Forward(gcn_input, gcn_input.AllRows())->value;
  }
  attention_q_ = attn_q->value;
  attention_b_ = attn_b->value.At(0, 0);
  head_w_ = head_w->value;
  head_b_ = head_b->value;

  double fit_seconds = fit_watch.ElapsedSeconds();
  registry.GetCounter("edge.core.fit_runs")->Increment();
  registry.GetGauge("edge.core.fit_seconds")->Set(fit_seconds);
  // loss_history_ can be empty when every attempted epoch diverged and the
  // rollback budget restored the initial state.
  double nan = std::numeric_limits<double>::quiet_NaN();
  EDGE_LOG(INFO) << "fit done" << obs::Kv("model", config_.display_name)
                 << obs::Kv("epochs_done", loss_history_.size())
                 << obs::Kv("first_nll",
                            loss_history_.empty() ? nan : loss_history_.front())
                 << obs::Kv("final_nll",
                            loss_history_.empty() ? nan : loss_history_.back())
                 << obs::Kv("sec", fit_seconds);
}

EdgePrediction EdgeModel::PredictFromIds(const std::vector<size_t>& ids,
                                         const std::vector<std::string>& names) const {
  EdgePrediction prediction;
  if (ids.empty()) {
    prediction.used_fallback = true;
    prediction.mixture = geo::GaussianMixture2d(
        {geo::Gaussian2d::Isotropic(fallback_mean_, fallback_sigma_km_)}, {1.0});
    prediction.point = projection_->ToLatLon(fallback_mean_);
    return prediction;
  }

  size_t hidden = hidden_dim();
  size_t k_count = ids.size();

  // Gather the tweet's embedding rows once. Dense and fp64-store rows are
  // read in place (for a mapped store that is the zero-copy path — the
  // pointers alias the file mapping); quantized stores decode into one
  // packed scratch buffer. The arithmetic below is unchanged from the dense
  // path, so a fp64 store is bitwise-identical to the text checkpoint.
  std::vector<const double*> rows(k_count);
  std::vector<double> scratch;
  if (store_ != nullptr && !store_->zero_copy()) {
    scratch.resize(k_count * hidden);
    for (size_t k = 0; k < k_count; ++k) {
      store_->DequantizeRow(ids[k], &scratch[k * hidden]);
      rows[k] = &scratch[k * hidden];
    }
  } else if (store_ != nullptr) {
    for (size_t k = 0; k < k_count; ++k) {
      rows[k] = store_->EmbeddingRow(ids[k], nullptr).data;
    }
  } else {
    for (size_t k = 0; k < k_count; ++k) {
      rows[k] = smoothed_embeddings_.row_data(ids[k]);
    }
  }

  // Attention scores (Eq. 2-3) over the gathered rows.
  std::vector<double> weights(k_count, 1.0);
  if (config_.use_attention) {
    for (size_t k = 0; k < k_count; ++k) {
      double s = attention_b_;
      const double* row = rows[k];
      for (size_t d = 0; d < hidden; ++d) s += row[d] * attention_q_.At(d, 0);
      weights[k] = std::max(s, 0.0);
    }
    SoftmaxInPlace(&weights);
  }

  // Aggregated tweet embedding (Eq. 4) and MDN head (Eq. 7).
  std::vector<double> z(hidden, 0.0);
  for (size_t k = 0; k < k_count; ++k) {
    const double* row = rows[k];
    for (size_t d = 0; d < hidden; ++d) z[d] += weights[k] * row[d];
  }
  size_t theta_dim = head_b_.cols();
  std::vector<double> theta(theta_dim);
  for (size_t j = 0; j < theta_dim; ++j) {
    double v = head_b_.At(0, j);
    for (size_t d = 0; d < hidden; ++d) v += z[d] * head_w_.At(d, j);
    theta[j] = v;
  }

  nn::MdnOptions mdn_options;
  mdn_options.num_components = config_.num_components;
  mdn_options.sigma_min = config_.sigma_min_km / coord_scale_km_;
  mdn_options.rho_max = config_.rho_max;
  nn::MdnMixture mix = nn::ActivateMdnRow(theta.data(), mdn_options);
  // Rescale from standardized training units back to kilometres.
  for (size_t m = 0; m < mix.num_components(); ++m) {
    mix.mean_x[m] *= coord_scale_km_;
    mix.mean_y[m] *= coord_scale_km_;
    mix.sigma_x[m] *= coord_scale_km_;
    mix.sigma_y[m] *= coord_scale_km_;
  }
  prediction.mixture = ToGeoMixture(mix);
  prediction.point = projection_->ToLatLon(prediction.mixture.FindMode());
  prediction.attention.reserve(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    prediction.attention.push_back({names[k], weights[k]});
  }
  return prediction;
}

EdgePrediction EdgeModel::Predict(const data::ProcessedTweet& tweet) const {
  EDGE_CHECK(fitted_) << "Predict() before Fit()";
  std::vector<std::pair<size_t, std::string>> known;
  for (const text::Entity& e : tweet.entities) {
    size_t id = NodeIdOf(e.name);
    if (id != graph::EntityGraph::kNotFound) known.emplace_back(id, e.name);
  }
  // Canonical ascending-id order (see GraphIds): the prediction depends only
  // on the entity set, never on mention order.
  std::sort(known.begin(), known.end());
  std::vector<size_t> ids;
  std::vector<std::string> names;
  ids.reserve(known.size());
  names.reserve(known.size());
  for (auto& [id, name] : known) {
    ids.push_back(id);
    names.push_back(std::move(name));
  }
  return PredictFromIds(ids, names);
}

EdgePrediction EdgeModel::FallbackPrediction() const {
  EDGE_CHECK(fitted_) << "FallbackPrediction() before Fit()";
  return PredictFromIds({}, {});
}

void EdgeModel::set_num_threads(int n) {
  EDGE_CHECK_GE(n, 0) << "num_threads must be >= 0 (0 = hardware)";
  config_.num_threads = n;
}

void EdgeModel::PredictBatch(const std::vector<data::ProcessedTweet>& tweets,
                             std::vector<EdgePrediction>* out) const {
  EDGE_CHECK(out != nullptr);
  EDGE_CHECK(fitted_) << "PredictBatch() before Fit()";
  EDGE_TRACE_SPAN("edge.core.predict_batch");
  out->assign(tweets.size(), EdgePrediction{});
  ScopedNumThreads scoped_threads(config_.num_threads);
  // Tweets are independent reads of fitted state; indexed writes keep the
  // output identical to the serial loop at any budget.
  ParallelFor(0, tweets.size(), /*grain=*/8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) (*out)[i] = Predict(tweets[i]);
  });
}

bool EdgeModel::PredictPoint(const data::ProcessedTweet& tweet, geo::LatLon* out) {
  EDGE_CHECK(out != nullptr);
  *out = Predict(tweet).point;
  return true;
}

void EdgeModel::PredictPoints(const std::vector<data::ProcessedTweet>& tweets,
                              std::vector<geo::LatLon>* points,
                              std::vector<uint8_t>* predicted) {
  EDGE_CHECK(points != nullptr && predicted != nullptr);
  EDGE_CHECK(fitted_) << "PredictPoints() before Fit()";
  EDGE_TRACE_SPAN("edge.core.predict_points");
  static obs::Histogram* batch_seconds =
      obs::Registry::Global().GetHistogram("edge.core.predict_points_seconds");
  obs::ScopedTimer timer(batch_seconds);
  obs::Registry::Global()
      .GetCounter("edge.core.tweets_predicted")
      ->Increment(static_cast<int64_t>(tweets.size()));
  points->assign(tweets.size(), geo::LatLon{});
  predicted->assign(tweets.size(), 1);  // EDGE never abstains (fallback prior).
  ScopedNumThreads scoped_threads(config_.num_threads);
  // Tweets are independent reads of fitted state; indexed writes keep the
  // output identical to the serial loop at any budget.
  ParallelFor(0, tweets.size(), /*grain=*/8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) (*points)[i] = Predict(tweets[i]).point;
  });
}

Status EdgeModel::SaveInference(std::ostream* out) const {
  EDGE_CHECK(out != nullptr);
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  std::ostream& os = *out;
  os.precision(17);
  os << "EDGE-INFERENCE v1\n";
  os << config_.display_name << "\n";
  os << config_.num_components << " " << config_.sigma_min_km << " " << config_.rho_max
     << " " << (config_.use_attention ? 1 : 0) << "\n";
  os << projection_->origin().lat << " " << projection_->origin().lon << "\n";
  os << num_entities() << " " << hidden_dim() << "\n";
  for (size_t n = 0; n < num_entities(); ++n) os << NodeNameOf(n) << "\n";
  auto write_matrix = [&os](const nn::Matrix& m) {
    os << m.rows() << " " << m.cols() << "\n";
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        os << m.At(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
      }
    }
  };
  // Embeddings go through the row-gather path so store-backed models (fp64
  // bitwise, quantized at their decoded values) convert back to canonical
  // text without materializing a dense matrix copy.
  {
    os << num_entities() << " " << hidden_dim() << "\n";
    std::vector<double> scratch;
    for (size_t r = 0; r < num_entities(); ++r) {
      nn::ConstRowSpan row = EmbeddingRowOf(r, &scratch);
      for (size_t c = 0; c < row.cols; ++c) {
        os << row[c] << (c + 1 == row.cols ? '\n' : ' ');
      }
    }
  }
  write_matrix(attention_q_);
  os << attention_b_ << "\n";
  write_matrix(head_w_);
  write_matrix(head_b_);
  os << fallback_mean_.x << " " << fallback_mean_.y << " " << fallback_sigma_km_ << "\n";
  os << coord_scale_km_ << "\n";
  if (!os.good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Result<std::unique_ptr<EdgeModel>> EdgeModel::LoadInference(std::istream* in) {
  // A serving process restarts on a bad checkpoint, so every malformation —
  // truncation, wrong magic, dimension mismatch, absurd sizes, non-finite
  // parameters — must come back as a Status, never an EDGE_CHECK abort or a
  // garbage-initialized matrix. Each read below is therefore checked before
  // its value is used (in particular before any allocation is sized by it).
  EDGE_CHECK(in != nullptr);
  std::istream& is = *in;
  std::string magic, version;
  is >> magic >> version;
  if (is.fail() || magic != "EDGE-INFERENCE" || version != "v1") {
    return Status::InvalidArgument("bad header: " + magic + " " + version);
  }
  EdgeConfig config;
  int use_attention = 1;
  is >> config.display_name;
  is >> config.num_components >> config.sigma_min_km >> config.rho_max >> use_attention;
  if (is.fail()) return Status::InvalidArgument("truncated config header");
  config.use_attention = use_attention != 0;
  // A corrupt config must not reach the EdgeModel constructor: its Validate()
  // failure is an EDGE_CHECK abort there. Bound num_components explicitly —
  // a negative token wraps to a huge size_t that Validate() would accept.
  constexpr size_t kMaxComponents = 1024;
  if (config.num_components == 0 || config.num_components > kMaxComponents) {
    return Status::InvalidArgument("implausible mixture component count");
  }
  Status config_status = config.Validate();
  if (!config_status.ok()) {
    return Status::InvalidArgument("corrupt checkpoint config: " +
                                   config_status.ToString());
  }
  double lat = 0.0, lon = 0.0;
  is >> lat >> lon;
  size_t num_nodes = 0, hidden = 0;
  is >> num_nodes >> hidden;
  if (is.fail()) return Status::InvalidArgument("truncated header");
  if (!(lat >= -90.0 && lat <= 90.0) || !(lon >= -360.0 && lon <= 360.0)) {
    return Status::InvalidArgument("projection origin out of range");
  }
  // Reject absurd dimensions before they size an allocation (a corrupt
  // header must not OOM the loader).
  constexpr size_t kMaxDim = size_t{1} << 26;
  if (num_nodes == 0 || hidden == 0 || num_nodes > kMaxDim || hidden > kMaxDim) {
    return Status::InvalidArgument("implausible graph dimensions");
  }

  auto model = std::make_unique<EdgeModel>(config);
  model->fitted_ = true;
  model->projection_ = std::make_unique<geo::LocalProjection>(geo::LatLon{lat, lon});

  std::vector<std::vector<std::string>> singleton_sets;
  singleton_sets.reserve(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    std::string name;
    is >> name;
    if (is.fail() || name.empty()) {
      return Status::InvalidArgument("truncated node-name table");
    }
    singleton_sets.push_back({std::move(name)});
  }
  model->graph_ = graph::EntityGraph::Build(singleton_sets);
  if (model->graph_.num_nodes() != num_nodes) {
    return Status::InvalidArgument("duplicate node names in stream");
  }

  auto read_matrix = [&is](nn::Matrix* m, size_t want_rows, size_t want_cols,
                           const char* what) -> Status {
    size_t rows = 0, cols = 0;
    is >> rows >> cols;
    if (is.fail()) return Status::InvalidArgument(std::string("truncated ") + what);
    if (rows != want_rows || cols != want_cols) {
      return Status::InvalidArgument(std::string(what) + " dimension mismatch");
    }
    *m = nn::Matrix(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        double v = 0.0;
        is >> v;
        if (is.fail()) {
          return Status::InvalidArgument(std::string("truncated ") + what);
        }
        if (!std::isfinite(v)) {
          return Status::InvalidArgument(std::string("non-finite value in ") + what);
        }
        m->At(r, c) = v;
      }
    }
    return Status::Ok();
  };
  size_t theta_dim = 6 * config.num_components;
  Status status = read_matrix(&model->smoothed_embeddings_, num_nodes, hidden,
                              "smoothed embeddings");
  if (status.ok()) status = read_matrix(&model->attention_q_, hidden, 1, "attention q");
  if (!status.ok()) return status;
  is >> model->attention_b_;
  if (is.fail()) return Status::InvalidArgument("truncated attention bias");
  status = read_matrix(&model->head_w_, hidden, theta_dim, "head weights");
  if (status.ok()) status = read_matrix(&model->head_b_, 1, theta_dim, "head bias");
  if (!status.ok()) return status;
  is >> model->fallback_mean_.x >> model->fallback_mean_.y >> model->fallback_sigma_km_;
  is >> model->coord_scale_km_;
  if (is.fail()) return Status::InvalidArgument("truncated body");
  if (!std::isfinite(model->attention_b_) || !std::isfinite(model->fallback_mean_.x) ||
      !std::isfinite(model->fallback_mean_.y)) {
    return Status::InvalidArgument("non-finite scalar parameters");
  }
  if (!(model->fallback_sigma_km_ > 0.0) ||
      !std::isfinite(model->fallback_sigma_km_)) {
    return Status::InvalidArgument("non-positive fallback sigma");
  }
  if (!(model->coord_scale_km_ > 0.0) || !std::isfinite(model->coord_scale_km_)) {
    return Status::InvalidArgument("non-positive coordinate scale");
  }
  return model;
}

Result<std::unique_ptr<EdgeModel>> EdgeModel::LoadFromStore(
    std::shared_ptr<const MmapModelStore> store) {
  EDGE_CHECK(store != nullptr);
  // The store already ran the untrusted-input gates (MmapModelStore::Validate
  // enforces the LoadInference contract), so everything here is O(1) in
  // entity count: copy the config and the O(hidden) matrices, keep the
  // mapping for the O(entities) state. No graph rebuild, no embedding parse.
  EdgeConfig config;
  config.display_name = store->display_name();
  config.num_components = store->num_components();
  config.sigma_min_km = store->sigma_min_km();
  config.rho_max = store->rho_max();
  config.use_attention = store->use_attention();
  Status config_status = config.Validate();
  if (!config_status.ok()) {
    return Status::InvalidArgument("corrupt store config: " +
                                   config_status.ToString());
  }
  auto model = std::make_unique<EdgeModel>(config);
  model->fitted_ = true;
  model->projection_ = std::make_unique<geo::LocalProjection>(
      geo::LatLon{store->origin_lat(), store->origin_lon()});
  model->attention_q_ = store->attention_q();
  model->attention_b_ = store->attention_b();
  model->head_w_ = store->head_w();
  model->head_b_ = store->head_b();
  model->fallback_mean_ = {store->fallback_x(), store->fallback_y()};
  model->fallback_sigma_km_ = store->fallback_sigma_km();
  model->coord_scale_km_ = store->coord_scale_km();
  model->store_ = std::move(store);
  return model;
}

}  // namespace edge::core
