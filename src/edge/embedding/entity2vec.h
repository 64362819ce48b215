#ifndef EDGE_EMBEDDING_ENTITY2VEC_H_
#define EDGE_EMBEDDING_ENTITY2VEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "edge/common/rng.h"
#include "edge/nn/matrix.h"
#include "edge/text/vocabulary.h"

namespace edge::embedding {

/// Hyper-parameters of the skip-gram/negative-sampling trainer. The paper's
/// default embedding length is 400 on GPU-scale corpora; our bench default is
/// 64 (Fig. 6 sweeps it), everything is configurable.
struct Entity2VecOptions {
  size_t dim = 64;
  size_t window = 5;
  size_t negatives = 5;
  double learning_rate = 0.025;
  double min_learning_rate = 1e-4;
  int epochs = 3;
  /// Frequent-token subsampling threshold (word2vec's `-sample`); 0 disables.
  double subsample_threshold = 1e-3;
  /// Tokens rarer than this are dropped from training and the vocabulary.
  int64_t min_count = 1;
  uint64_t seed = 42;
};

/// entity2vec (§III-A1): word2vec skip-gram with negative sampling, trained
/// on tweets whose named entities were pre-joined into single tokens (by the
/// NER spans and the PhraseDetector), so each entity gets one embedding that
/// captures entity-level — not word-level — semantics. Implemented from
/// scratch; negative samples come from the unigram^0.75 distribution.
/// Training is one serial pass over one RNG stream, so embeddings are a pure
/// function of (corpus, options).
class Entity2Vec {
 public:
  explicit Entity2Vec(Entity2VecOptions options = {});

  /// Trains embeddings on the tokenized corpus. Call once.
  void Train(const std::vector<std::vector<std::string>>& corpus);

  /// Vocabulary after min-count filtering; row i of embeddings() is
  /// vocab().TokenOf(i).
  const text::Vocabulary& vocab() const { return vocab_; }

  /// |V| x dim input-embedding matrix (the representation fed to the GCN).
  const nn::Matrix& embeddings() const { return input_; }

  /// Embedding row for a token; empty vector when out-of-vocabulary.
  std::vector<double> EmbeddingOf(const std::string& token) const;

  /// Cosine similarity of two in-vocabulary tokens.
  double CosineSimilarity(const std::string& a, const std::string& b) const;

  /// Top-k most similar in-vocabulary tokens by cosine.
  std::vector<std::pair<std::string, double>> MostSimilar(const std::string& token,
                                                          size_t k) const;

  const Entity2VecOptions& options() const { return options_; }

 private:
  /// Caller-owned scratch of TrainEpochs, hoisted out of the pair loop so
  /// the inner trainer never allocates; TrainPair overwrites it.
  struct PairScratch {
    std::vector<double> u_grad;   ///< dim.
    std::vector<size_t> targets;  ///< The pair's output rows, update order.
    std::vector<double> dots;     ///< u . v of each target.
  };

  size_t SampleNegative(Rng* rng) const;
  /// One skip-gram pair: a positive update of `context`, then one negative
  /// update per sampled noise token that is not the context.
  void TrainPair(size_t center, size_t context, double lr, Rng* rng,
                 PairScratch* scratch);
  /// Runs the epoch loop over `id_corpus`, decaying the learning rate
  /// against its `total_tokens` times epochs.
  void TrainEpochs(const std::vector<std::vector<size_t>>& id_corpus,
                   int64_t total_tokens, Rng* rng);

  Entity2VecOptions options_;
  text::Vocabulary vocab_;
  nn::Matrix input_;    // "u" vectors.
  nn::Matrix output_;   // "v" context vectors.
  std::vector<double> negative_cdf_;  // Cumulative unigram^0.75.
  bool trained_ = false;
};

}  // namespace edge::embedding

#endif  // EDGE_EMBEDDING_ENTITY2VEC_H_
