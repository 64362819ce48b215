#ifndef EDGE_CORE_EDGE_MODEL_H_
#define EDGE_CORE_EDGE_MODEL_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "edge/core/edge_config.h"
#include "edge/data/pipeline.h"
#include "edge/embedding/entity2vec.h"
#include "edge/eval/geolocator.h"
#include "edge/geo/mixture.h"
#include "edge/geo/projection.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/layers.h"

namespace edge::core {

class MmapModelStore;
enum class EmbedPrecision : uint32_t;

/// One entity's learned attention weight in a prediction — the
/// interpretability signal of Eq. 2-3 (which entities drove the location).
struct EntityAttention {
  std::string entity;
  double weight = 0.0;
};

/// EDGE's prediction for one tweet: a full bivariate Gaussian mixture in the
/// local km plane (convert coordinates with the model's projection()), the
/// Eq. 14 single-point conversion in lat/lon, and the per-entity attention.
struct EdgePrediction {
  geo::GaussianMixture2d mixture;  ///< In the model's local km plane.
  geo::LatLon point;               ///< argmax of the mixture density (Eq. 14).
  std::vector<EntityAttention> attention;
  /// True when no tweet entity was in the entity graph and the model fell
  /// back to its training-set prior (such tweets are excluded from the
  /// paper's evaluation; the fallback keeps the API total).
  bool used_fallback = false;
};

/// The Entity-Diffusion Gaussian Ensemble model (§III): entity2vec semantic
/// embeddings, diffused over the co-occurrence entity graph by a GCN
/// (Eq. 1), aggregated per tweet by learned attention (Eq. 2-4), mapped by a
/// fully-connected head (Eq. 7) to the parameters of a bivariate Gaussian
/// mixture (Eq. 8-12), trained end-to-end by maximizing the likelihood of
/// the ground-truth locations (Eq. 13).
class EdgeModel : public eval::Geolocator {
 public:
  explicit EdgeModel(EdgeConfig config);

  EdgeModel(const EdgeModel&) = delete;
  EdgeModel& operator=(const EdgeModel&) = delete;

  std::string name() const override { return config_.display_name; }

  /// Trains the full pipeline on the dataset's training split:
  /// entity2vec -> entity graph -> GCN+attention+MDN end-to-end.
  void Fit(const data::ProcessedDataset& dataset) override;

  /// Eq. 14 single-point conversion (always succeeds; see used_fallback).
  bool PredictPoint(const data::ProcessedTweet& tweet, geo::LatLon* out) override;

  /// Tweet-parallel batched prediction under config().num_threads. Predict()
  /// only reads fitted state, so tweets are independent; the output equals
  /// the serial PredictPoint loop element-for-element at any budget.
  void PredictPoints(const std::vector<data::ProcessedTweet>& tweets,
                     std::vector<geo::LatLon>* points,
                     std::vector<uint8_t>* predicted) override;

  /// Full mixture prediction with attention interpretability. The tweet's
  /// in-graph entities are canonicalized to ascending node-id order before
  /// aggregation, so the prediction is a pure (bitwise-deterministic)
  /// function of the entity *set* — the invariant edge::serve's response
  /// cache keys on.
  EdgePrediction Predict(const data::ProcessedTweet& tweet) const;

  /// Tweet-parallel batched Predict() under config().num_threads; output
  /// equals the serial Predict() loop element-for-element at any budget.
  /// This is the batch path edge::serve drains its micro-batches through.
  void PredictBatch(const std::vector<data::ProcessedTweet>& tweets,
                    std::vector<EdgePrediction>* out) const;

  /// The training-set prior answered for tweets with no in-graph entity —
  /// what a serving layer degrades to for shed or timed-out requests.
  EdgePrediction FallbackPrediction() const;

  /// Overrides the inference thread budget (EdgeConfig::num_threads
  /// semantics: 0 = hardware, 1 = serial). Serving processes tune this on a
  /// loaded checkpoint, which does not carry a thread budget.
  void set_num_threads(int n);

  /// Mean training NLL per epoch (Eq. 13), for convergence tests/plots.
  const std::vector<double>& loss_history() const { return loss_history_; }

  /// The co-occurrence entity graph built during Fit.
  const graph::EntityGraph& entity_graph() const { return graph_; }

  /// The km-plane projection the mixture lives in.
  const geo::LocalProjection& projection() const;

  /// The trained entity2vec embeddings.
  const embedding::Entity2Vec& entity2vec() const { return *entity2vec_; }

  const EdgeConfig& config() const { return config_; }

  /// Builds a Predict()-capable model over an already-validated edge-model.v1
  /// store (model_store.h), the one inference checkpoint format: the store
  /// holds the inference state (smoothed embeddings, attention and head
  /// parameters, projection, fallback prior). Embedding rows are served out
  /// of the store — zero-copy for fp64, dequantize-on-gather for
  /// fp32/fp16/int8 — so this is O(1) in entity count: no embedding copy, no
  /// graph reconstruction. The model holds the shared_ptr, keeping every
  /// ConstRowSpan it gathers valid. The model cannot be Fit() again.
  static Result<std::unique_ptr<EdgeModel>> LoadFromStore(
      std::shared_ptr<const MmapModelStore> store);

  /// Node id of an entity name in this model's vocabulary (the id space the
  /// embedding rows and the serve-layer cache keys live in), or
  /// graph::EntityGraph::kNotFound. Routes to the entity graph for trained
  /// models and to the mapped vocabulary for store-backed ones — the store
  /// keeps the graph's node order, so a trained model and its store agree on
  /// every id.
  size_t NodeIdOf(std::string_view name) const;

  /// Entity name of node `id` (inverse of NodeIdOf). The view aliases model
  /// storage and lives as long as the model.
  std::string_view NodeNameOf(size_t id) const;

  /// Number of entities in the vocabulary (= embedding rows).
  size_t num_entities() const;

  /// The backing store for store-backed models, nullptr otherwise.
  const MmapModelStore* store() const { return store_.get(); }

 private:
  friend Status SerializeModelStore(const EdgeModel& model,
                                    EmbedPrecision precision, std::string* out);

  /// Node ids of a tweet's in-graph entities, in canonical ascending order.
  std::vector<size_t> GraphIds(const data::ProcessedTweet& tweet) const;
  EdgePrediction PredictFromIds(const std::vector<size_t>& ids,
                                const std::vector<std::string>& names) const;
  /// Embedding row `node`, wherever it lives (dense matrix, mapped fp64
  /// store, or dequantized via *scratch for quantized stores).
  nn::ConstRowSpan EmbeddingRowOf(size_t node, std::vector<double>* scratch) const;
  /// Embedding width (dense matrix or store header).
  size_t hidden_dim() const;

  EdgeConfig config_;
  bool fitted_ = false;

  /// Set only by LoadFromStore: the mapped checkpoint this model serves
  /// embeddings from. When set, smoothed_embeddings_ and graph_ stay empty;
  /// the attention/head matrices below are copies of the store's (they are
  /// O(hidden), not O(entities)).
  std::shared_ptr<const MmapModelStore> store_;

  std::unique_ptr<embedding::Entity2Vec> entity2vec_;
  graph::EntityGraph graph_;
  nn::CsrMatrix normalized_adjacency_;
  std::unique_ptr<geo::LocalProjection> projection_;

  // Trained parameters (dense copies used for inference).
  nn::Matrix smoothed_embeddings_;  ///< H after the last GCN layer, |V| x d.
  nn::Matrix attention_q_;          ///< d x 1.
  double attention_b_ = 0.0;
  nn::Matrix head_w_;               ///< d x 6M.
  nn::Matrix head_b_;               ///< 1 x 6M.

  /// Prior fit to the training locations; used when a tweet has no in-graph
  /// entity.
  geo::PlanePoint fallback_mean_;
  double fallback_sigma_km_ = 5.0;

  /// Standardization scale: the MDN is trained on plane coordinates divided
  /// by this (roughly the training spread in km), the classic MDN
  /// conditioning trick — raw-km targets force the linear head to grow
  /// region-sized weights against weight decay. Predictions are rescaled
  /// back to km. DESIGN.md §4(3).
  double coord_scale_km_ = 1.0;

  std::vector<double> loss_history_;
};

}  // namespace edge::core

#endif  // EDGE_CORE_EDGE_MODEL_H_
