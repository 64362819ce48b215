#include "edge/embedding/entity2vec.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "edge/common/math_util.h"
#include "edge/common/rng.h"

namespace edge::embedding {
namespace {

/// Corpus with two disjoint "topic clusters": tokens within a cluster
/// co-occur, tokens across clusters never do.
std::vector<std::vector<std::string>> ClusteredCorpus(int repeats) {
  std::vector<std::vector<std::string>> corpus;
  Rng rng(5);
  std::vector<std::string> cluster_a = {"majestic_theatre", "broadway", "@phantomopera",
                                        "show", "musical"};
  std::vector<std::string> cluster_b = {"presbyterian_hospital", "covid", "masks",
                                        "nurse", "ward"};
  for (int r = 0; r < repeats; ++r) {
    for (const auto& cluster : {cluster_a, cluster_b}) {
      std::vector<std::string> sentence;
      for (int k = 0; k < 6; ++k) {
        sentence.push_back(cluster[rng.UniformInt(cluster.size())]);
      }
      corpus.push_back(sentence);
    }
  }
  return corpus;
}

TEST(Entity2VecTest, VocabularyAndShapes) {
  Entity2VecOptions options;
  options.dim = 16;
  options.epochs = 1;
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(10));
  EXPECT_EQ(model.vocab().size(), 10u);
  EXPECT_EQ(model.embeddings().rows(), 10u);
  EXPECT_EQ(model.embeddings().cols(), 16u);
  EXPECT_EQ(model.EmbeddingOf("broadway").size(), 16u);
  EXPECT_TRUE(model.EmbeddingOf("unseen_token").empty());
}

TEST(Entity2VecTest, CooccurringTokensAreCloser) {
  Entity2VecOptions options;
  options.dim = 24;
  options.epochs = 8;
  options.subsample_threshold = 0.0;  // Tiny corpus: keep everything.
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(120));
  double same_cluster = model.CosineSimilarity("majestic_theatre", "@phantomopera");
  double cross_cluster = model.CosineSimilarity("majestic_theatre", "covid");
  EXPECT_GT(same_cluster, cross_cluster + 0.2);
}

TEST(Entity2VecTest, MostSimilarRanksOwnCluster) {
  Entity2VecOptions options;
  options.dim = 24;
  options.epochs = 8;
  options.subsample_threshold = 0.0;
  Entity2Vec model(options);
  model.Train(ClusteredCorpus(120));
  auto similar = model.MostSimilar("covid", 3);
  ASSERT_EQ(similar.size(), 3u);
  // All three nearest neighbours of "covid" come from the hospital cluster.
  for (const auto& [token, score] : similar) {
    EXPECT_TRUE(token == "presbyterian_hospital" || token == "masks" ||
                token == "nurse" || token == "ward")
        << token;
  }
}

TEST(Entity2VecTest, DeterministicAcrossRuns) {
  Entity2VecOptions options;
  options.dim = 8;
  options.epochs = 2;
  Entity2Vec a(options);
  Entity2Vec b(options);
  a.Train(ClusteredCorpus(20));
  b.Train(ClusteredCorpus(20));
  EXPECT_TRUE(nn::AllClose(a.embeddings(), b.embeddings(), 0.0));
}

TEST(Entity2VecTest, MinCountFiltersRareTokens) {
  Entity2VecOptions options;
  options.dim = 8;
  options.min_count = 3;
  Entity2Vec model(options);
  std::vector<std::vector<std::string>> corpus = {
      {"common", "common", "common", "rare"},
      {"common", "other", "other", "other"},
  };
  model.Train(corpus);
  EXPECT_NE(model.vocab().Lookup("common"), text::Vocabulary::kNotFound);
  EXPECT_NE(model.vocab().Lookup("other"), text::Vocabulary::kNotFound);
  EXPECT_EQ(model.vocab().Lookup("rare"), text::Vocabulary::kNotFound);
}

/// Plain sequential skip-gram: the schedule Entity2Vec::Train follows (init,
/// unigram^0.75 noise, dynamic window, linear lr decay), with every pair
/// written the textbook way — for each target in turn, dot then update.
/// Subsampling must be off (threshold 0), so the schedule draws no keep
/// decisions. Returns the input embeddings; `repeated_pairs` counts pairs in
/// which some target came up twice.
nn::Matrix SequentialReference(const std::vector<std::vector<std::string>>& corpus,
                               const Entity2VecOptions& options,
                               const text::Vocabulary& vocab, size_t* repeated_pairs) {
  const size_t dim = options.dim;
  Rng rng(options.seed);
  nn::Matrix input(vocab.size(), dim);
  nn::Matrix output(vocab.size(), dim);
  double init_scale = 0.5 / static_cast<double>(dim);
  for (size_t r = 0; r < vocab.size(); ++r) {
    for (size_t c = 0; c < dim; ++c) input.At(r, c) = rng.Uniform(-init_scale, init_scale);
  }
  std::vector<double> cdf(vocab.size());
  double cumulative = 0.0;
  for (size_t i = 0; i < vocab.size(); ++i) {
    cumulative += std::pow(static_cast<double>(vocab.CountOf(i)), 0.75);
    cdf[i] = cumulative;
  }
  int64_t total_tokens = 0;
  for (const auto& sentence : corpus) total_tokens += static_cast<int64_t>(sentence.size());
  const int64_t planned = total_tokens * options.epochs;
  int64_t processed = 0;
  *repeated_pairs = 0;
  std::vector<double> grad(dim);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (const auto& sentence : corpus) {
      std::vector<size_t> ids;
      for (const std::string& token : sentence) ids.push_back(vocab.Lookup(token));
      processed += static_cast<int64_t>(ids.size());
      double lr = std::max(options.min_learning_rate,
                           options.learning_rate *
                               (1.0 - static_cast<double>(processed) /
                                          static_cast<double>(planned)));
      for (size_t pos = 0; pos < ids.size(); ++pos) {
        size_t span = 1 + rng.UniformInt(options.window);
        size_t lo = pos >= span ? pos - span : 0;
        size_t hi = std::min(ids.size(), pos + span + 1);
        for (size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx == pos) continue;
          double* u = input.row_data(ids[pos]);
          std::fill(grad.begin(), grad.end(), 0.0);
          std::vector<size_t> seen;
          auto update = [&](size_t target, double label) {
            if (std::find(seen.begin(), seen.end(), target) != seen.end()) {
              ++*repeated_pairs;
            }
            seen.push_back(target);
            double* v = output.row_data(target);
            double z = 0.0;
            for (size_t d = 0; d < dim; ++d) z += u[d] * v[d];
            double g = (Sigmoid(z) - label) * lr;
            for (size_t d = 0; d < dim; ++d) {
              grad[d] += g * v[d];
              v[d] -= g * u[d];
            }
          };
          update(ids[ctx], 1.0);
          for (size_t n = 0; n < options.negatives; ++n) {
            double draw = rng.Uniform() * cdf.back();
            size_t neg = static_cast<size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), draw) - cdf.begin());
            if (neg == ids[ctx]) continue;
            update(neg, 0.0);
          }
          for (size_t d = 0; d < dim; ++d) u[d] -= grad[d];
        }
      }
    }
  }
  return input;
}

TEST(Entity2VecTest, PairUpdatesMatchSequentialReferenceBitwise) {
  // Three tokens: most pairs draw some target twice (dotted after its earlier
  // update); thirty tokens: most pairs have six distinct targets (dotted side
  // by side).
  for (size_t vocab_size : {3u, 30u}) {
    Rng rng(17 + vocab_size);
    std::vector<std::vector<std::string>> corpus(60);
    for (auto& sentence : corpus) {
      size_t length = 3 + rng.UniformInt(6);
      for (size_t t = 0; t < length; ++t) {
        sentence.push_back("tok" + std::to_string(rng.UniformInt(vocab_size)));
      }
    }
    Entity2VecOptions options;
    options.dim = 13;
    options.window = 3;
    options.negatives = 5;
    options.epochs = 3;
    options.subsample_threshold = 0.0;
    Entity2Vec model(options);
    model.Train(corpus);
    size_t repeated_pairs = 0;
    nn::Matrix reference =
        SequentialReference(corpus, options, model.vocab(), &repeated_pairs);
    if (vocab_size == 3) EXPECT_GT(repeated_pairs, 100u);
    ASSERT_EQ(model.embeddings().rows(), reference.rows());
    for (size_t r = 0; r < reference.rows(); ++r) {
      for (size_t c = 0; c < reference.cols(); ++c) {
        ASSERT_EQ(model.embeddings().At(r, c), reference.At(r, c))
            << "vocab " << vocab_size << " row " << r << " col " << c;
      }
    }
  }
}

TEST(Entity2VecTest, EmptyCorpusIsSafe) {
  Entity2Vec model;
  model.Train({});
  EXPECT_EQ(model.vocab().size(), 0u);
}

}  // namespace
}  // namespace edge::embedding
