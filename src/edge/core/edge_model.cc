#include "edge/core/edge_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "edge/common/file_util.h"
#include "edge/common/math_util.h"
#include "edge/common/rng.h"
#include "edge/common/stopwatch.h"
#include "edge/common/thread_pool.h"
#include "edge/core/model_store.h"
#include "edge/core/train_checkpoint.h"
#include "edge/embedding/entity2vec.h"
#include "edge/fault/fault.h"
#include "edge/graph/gcn.h"
#include "edge/nn/autodiff.h"
#include "edge/nn/init.h"
#include "edge/nn/layers.h"
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

static_assert(MmapModelStore::kNotFound == graph::EntityGraph::kNotFound,
              "NodeIdOf answers in the entity graph's id space");

size_t EdgeModel::NodeIdOf(std::string_view name) const {
  EDGE_CHECK(store_ != nullptr) << "NodeIdOf() before Fit()";
  return store_->NodeId(name);
}

std::string_view EdgeModel::NodeNameOf(size_t id) const {
  EDGE_CHECK(store_ != nullptr) << "NodeNameOf() before Fit()";
  return store_->NodeName(id);
}

size_t EdgeModel::num_entities() const {
  EDGE_CHECK(store_ != nullptr) << "num_entities() before Fit()";
  return store_->num_nodes();
}

void EdgeModel::Adopt(std::shared_ptr<const MmapModelStore> store) {
  projection_ = std::make_unique<geo::LocalProjection>(store->head().origin);
  store_ = std::move(store);
}

void EdgeModel::Fit(const data::ProcessedDataset& dataset) {
  EDGE_CHECK(store_ == nullptr) << "Fit() may only be called once";
  EDGE_CHECK(!dataset.train.empty()) << "empty training split";
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
  embedding::Entity2Vec entity2vec(e2v_options);
  {
    EDGE_TRACE_SPAN("edge.core.fit.entity2vec");
    std::vector<std::vector<std::string>> corpus;
    corpus.reserve(dataset.train.size());
    for (const data::ProcessedTweet& t : dataset.train) corpus.push_back(t.tokens);
    entity2vec.Train(corpus);
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
  nn::CsrMatrix adjacency = graph_.NormalizedAdjacency();

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
      std::vector<double> emb = entity2vec.EmbeddingOf(graph_.NodeName(node));
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
  // The inference state is collected in `head` as each value is computed;
  // stage 6 encodes it.
  ModelHead head;
  head.display_name = config_.display_name;
  head.num_components = config_.num_components;
  head.sigma_min_km = config_.sigma_min_km;
  head.rho_max = config_.rho_max;
  head.use_attention = config_.use_attention;
  head.origin = dataset.region.Center();
  geo::LocalProjection projection(head.origin);
  std::vector<geo::PlanePoint> targets;
  targets.reserve(dataset.train.size());
  for (const data::ProcessedTweet& t : dataset.train) {
    targets.push_back(projection.ToPlane(t.location));
  }
  {
    double sx = 0.0;
    double sy = 0.0;
    for (const geo::PlanePoint& p : targets) {
      sx += p.x;
      sy += p.y;
    }
    head.fallback_mean = {sx / static_cast<double>(targets.size()),
                          sy / static_cast<double>(targets.size())};
    const geo::PlanePoint& mean = head.fallback_mean;
    double var = 0.0;
    for (const geo::PlanePoint& p : targets) {
      var += (p.x - mean.x) * (p.x - mean.x) + (p.y - mean.y) * (p.y - mean.y);
    }
    head.fallback_sigma_km =
        std::max(1.0, std::sqrt(var / (2.0 * static_cast<double>(targets.size()))));
    // Standardize: train the MDN in units of the data spread (ModelHead).
    head.coord_scale_km = head.fallback_sigma_km;
    for (geo::PlanePoint& p : targets) {
      p.x /= head.coord_scale_km;
      p.y /= head.coord_scale_km;
    }
  }

  graph::GcnInput gcn_input(&adjacency, std::move(features));

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
    double sigma_init = SoftplusInverse(2.0 / head.coord_scale_km);
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
  mdn_options.sigma_min = config_.sigma_min_km / head.coord_scale_km;
  mdn_options.rho_max = config_.rho_max;

  // Precompute each tweet's in-graph node ids (training tweets always have
  // at least one entity by the §IV-A filter), ascending as Predict orders
  // them: that fixes the summation order of the attention pooling.
  std::vector<std::vector<size_t>> tweet_ids(dataset.train.size());
  for (size_t i = 0; i < dataset.train.size(); ++i) {
    for (const text::Entity& e : dataset.train[i].entities) {
      size_t id = graph_.NodeId(e.name);
      if (id != graph::EntityGraph::kNotFound) tweet_ids[i].push_back(id);
    }
    std::sort(tweet_ids[i].begin(), tweet_ids[i].end());
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

  // --- Stage 6: encode the inference state as an fp64 store and adopt it,
  // so a trained model predicts exactly as one loaded from its file. ---
  {
    EDGE_TRACE_SPAN("edge.core.fit.cache_inference");
    head.attention_q = attn_q->value;
    head.attention_b = attn_b->value.At(0, 0);
    head.head_w = head_w->value;
    head.head_b = head_b->value;
    std::vector<std::string_view> names(graph_.num_nodes());
    for (size_t node = 0; node < names.size(); ++node) {
      names[node] = graph_.NodeName(node);
    }
    std::string bytes;
    Status status = EncodeModelStore(
        head, names, gcn.Forward(gcn_input, gcn_input.AllRows())->value,
        EmbedPrecision::kFp64, &bytes);
    EDGE_CHECK(status.ok()) << status.ToString();
    Result<std::shared_ptr<const MmapModelStore>> store =
        MmapModelStore::FromBytes(std::move(bytes), StoreVerify::kFull);
    EDGE_CHECK(store.ok()) << "trained state fails the store gates: "
                           << store.status().ToString();
    Adopt(std::move(store).value());
  }

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
  const ModelHead& head = store_->head();
  EdgePrediction prediction;
  if (ids.empty()) {
    prediction.used_fallback = true;
    prediction.mixture = geo::GaussianMixture2d(
        {geo::Gaussian2d::Isotropic(head.fallback_mean, head.fallback_sigma_km)},
        {1.0});
    prediction.point = projection_->ToLatLon(head.fallback_mean);
    return prediction;
  }

  size_t hidden = store_->hidden();
  size_t k_count = ids.size();

  // Gather the tweet's embedding rows once. fp64 rows are read in place (for
  // a mapped file that is the zero-copy path — the pointers alias the
  // mapping); quantized stores decode into one packed scratch buffer.
  std::vector<const double*> rows(k_count);
  std::vector<double> scratch;
  if (store_->zero_copy()) {
    for (size_t k = 0; k < k_count; ++k) {
      rows[k] = store_->EmbeddingRow(ids[k], nullptr).data;
    }
  } else {
    scratch.resize(k_count * hidden);
    for (size_t k = 0; k < k_count; ++k) {
      store_->DequantizeRow(ids[k], &scratch[k * hidden]);
      rows[k] = &scratch[k * hidden];
    }
  }

  // Attention scores (Eq. 2-3) over the gathered rows.
  std::vector<double> weights(k_count, 1.0);
  if (head.use_attention) {
    for (size_t k = 0; k < k_count; ++k) {
      double s = head.attention_b;
      const double* row = rows[k];
      for (size_t d = 0; d < hidden; ++d) s += row[d] * head.attention_q.At(d, 0);
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
  size_t theta_dim = head.head_b.cols();
  std::vector<double> theta(theta_dim);
  for (size_t j = 0; j < theta_dim; ++j) {
    double v = head.head_b.At(0, j);
    for (size_t d = 0; d < hidden; ++d) v += z[d] * head.head_w.At(d, j);
    theta[j] = v;
  }

  nn::MdnOptions mdn_options;
  mdn_options.num_components = head.num_components;
  mdn_options.sigma_min = head.sigma_min_km / head.coord_scale_km;
  mdn_options.rho_max = head.rho_max;
  nn::MdnMixture mix = nn::ActivateMdnRow(theta.data(), mdn_options);
  // Rescale from standardized training units back to kilometres.
  for (size_t m = 0; m < mix.num_components(); ++m) {
    mix.mean_x[m] *= head.coord_scale_km;
    mix.mean_y[m] *= head.coord_scale_km;
    mix.sigma_x[m] *= head.coord_scale_km;
    mix.sigma_y[m] *= head.coord_scale_km;
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
  EDGE_CHECK(store_ != nullptr) << "Predict() before Fit()";
  std::vector<std::pair<size_t, std::string>> known;
  for (const text::Entity& e : tweet.entities) {
    size_t id = NodeIdOf(e.name);
    if (id != graph::EntityGraph::kNotFound) known.emplace_back(id, e.name);
  }
  // Canonical ascending-id order: attention/aggregation are mathematically
  // permutation-invariant, but fixing the floating-point summation order
  // makes the prediction a pure function of the entity set (not the mention
  // order) — the property the serve-layer cache keys on.
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
  EDGE_CHECK(store_ != nullptr) << "FallbackPrediction() before Fit()";
  return PredictFromIds({}, {});
}

void EdgeModel::set_num_threads(int n) {
  EDGE_CHECK_GE(n, 0) << "num_threads must be >= 0 (0 = hardware)";
  config_.num_threads = n;
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
  EDGE_CHECK(store_ != nullptr) << "PredictPoints() before Fit()";
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

Result<std::unique_ptr<EdgeModel>> EdgeModel::LoadFromStore(
    std::shared_ptr<const MmapModelStore> store) {
  EDGE_CHECK(store != nullptr);
  // The store already ran the untrusted-input gates (MmapModelStore::Validate),
  // the config's included, so this is O(1) in entity count and copies
  // nothing: the model reads its head and rows from the store.
  const ModelHead& head = store->head();
  EdgeConfig config;
  config.display_name = head.display_name;
  config.num_components = head.num_components;
  config.sigma_min_km = head.sigma_min_km;
  config.rho_max = head.rho_max;
  config.use_attention = head.use_attention;
  auto model = std::make_unique<EdgeModel>(std::move(config));
  model->Adopt(std::move(store));
  return model;
}

}  // namespace edge::core
