#include "edge/embedding/entity2vec.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "edge/common/math_util.h"
#include "edge/common/stopwatch.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"

namespace edge::embedding {

Entity2Vec::Entity2Vec(Entity2VecOptions options) : options_(options) {
  EDGE_CHECK_GT(options_.dim, 0u);
  EDGE_CHECK_GT(options_.learning_rate, 0.0);
  EDGE_CHECK_GE(options_.epochs, 1);
}

void Entity2Vec::Train(const std::vector<std::vector<std::string>>& corpus) {
  EDGE_CHECK(!trained_) << "Train() may only be called once";
  trained_ = true;
  EDGE_TRACE_SPAN("edge.embedding.entity2vec.train");
  Stopwatch watch;

  // Pass 1: raw counts for min-count filtering.
  std::unordered_map<std::string, int64_t> raw_counts;
  for (const auto& sentence : corpus) {
    for (const auto& token : sentence) raw_counts[token] += 1;
  }
  // Build the filtered vocabulary (Add() also records counts).
  for (const auto& sentence : corpus) {
    for (const auto& token : sentence) {
      if (raw_counts[token] >= options_.min_count) vocab_.Add(token);
    }
  }
  if (vocab_.size() == 0) return;  // Nothing frequent enough to train on.

  Rng rng(options_.seed);
  double init_scale = 0.5 / static_cast<double>(options_.dim);
  input_ = nn::Matrix(vocab_.size(), options_.dim);
  output_ = nn::Matrix(vocab_.size(), options_.dim);
  for (size_t r = 0; r < vocab_.size(); ++r) {
    for (size_t c = 0; c < options_.dim; ++c) {
      input_.At(r, c) = rng.Uniform(-init_scale, init_scale);
    }
  }

  // Negative-sampling CDF over unigram^0.75 (word2vec's noise distribution).
  negative_cdf_.resize(vocab_.size());
  double cumulative = 0.0;
  for (size_t i = 0; i < vocab_.size(); ++i) {
    cumulative += std::pow(static_cast<double>(vocab_.CountOf(i)), 0.75);
    negative_cdf_[i] = cumulative;
  }

  // Convert the corpus to id sequences once.
  std::vector<std::vector<size_t>> id_corpus;
  id_corpus.reserve(corpus.size());
  int64_t total_tokens = 0;
  for (const auto& sentence : corpus) {
    std::vector<size_t> ids;
    ids.reserve(sentence.size());
    for (const auto& token : sentence) {
      size_t id = vocab_.Lookup(token);
      if (id != text::Vocabulary::kNotFound) ids.push_back(id);
    }
    total_tokens += static_cast<int64_t>(ids.size());
    id_corpus.push_back(std::move(ids));
  }
  if (total_tokens == 0) return;

  obs::Registry& registry = obs::Registry::Global();
  registry.GetGauge("edge.embedding.entity2vec.vocab_size")
      ->Set(static_cast<double>(vocab_.size()));
  registry.GetCounter("edge.embedding.entity2vec.corpus_tokens")
      ->Increment(total_tokens);
  // One RNG stream through the init above and all of training.
  TrainEpochs(id_corpus, total_tokens, &rng);
  double seconds = watch.ElapsedSeconds();
  registry.GetHistogram("edge.embedding.entity2vec.train_seconds")->Observe(seconds);
  EDGE_LOG(INFO) << "entity2vec trained" << obs::Kv("vocab", vocab_.size())
                 << obs::Kv("tokens", total_tokens)
                 << obs::Kv("epochs", options_.epochs) << obs::Kv("sec", seconds);
}

void Entity2Vec::TrainEpochs(const std::vector<std::vector<size_t>>& id_corpus,
                             int64_t total_tokens, Rng* rng) {
  const int64_t planned = total_tokens * options_.epochs;
  int64_t processed = 0;
  // Scratch reused across every sentence and pair; TrainPair and the
  // subsampling filter never touch the heap in steady state.
  PairScratch scratch;
  scratch.u_grad.assign(options_.dim, 0.0);
  std::vector<size_t> kept;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    for (const std::vector<size_t>& ids : id_corpus) {
      // Frequent-token subsampling (applied per epoch so rare entities keep
      // all their contexts).
      kept.clear();
      kept.reserve(ids.size());
      for (size_t id : ids) {
        processed += 1;
        if (options_.subsample_threshold > 0.0) {
          double freq = static_cast<double>(vocab_.CountOf(id)) /
                        static_cast<double>(vocab_.total_count());
          double keep_p =
              std::sqrt(options_.subsample_threshold / freq) +
              options_.subsample_threshold / freq;
          if (keep_p < 1.0 && rng->Uniform() >= keep_p) continue;
        }
        kept.push_back(id);
      }
      double progress = static_cast<double>(processed) / static_cast<double>(planned);
      double lr = std::max(options_.min_learning_rate,
                           options_.learning_rate * (1.0 - progress));
      for (size_t pos = 0; pos < kept.size(); ++pos) {
        // Dynamic window, as in word2vec.
        size_t span = 1 + rng->UniformInt(options_.window);
        size_t lo = pos >= span ? pos - span : 0;
        size_t hi = std::min(kept.size(), pos + span + 1);
        for (size_t ctx = lo; ctx < hi; ++ctx) {
          if (ctx == pos) continue;
          TrainPair(kept[pos], kept[ctx], lr, rng, &scratch);
        }
      }
    }
  }
}

size_t Entity2Vec::SampleNegative(Rng* rng) const {
  double target = rng->Uniform() * negative_cdf_.back();
  auto it = std::lower_bound(negative_cdf_.begin(), negative_cdf_.end(), target);
  return static_cast<size_t>(it - negative_cdf_.begin());
}

namespace {

/// u . v_c for N rows side by side. Each chain is summed over d in ascending
/// order — bitwise the serial dot — and the interleaving only lets the adds
/// of different chains overlap.
template <size_t N>
void DotChains(const double* EDGE_RESTRICT u, const double* const* v, size_t dim,
               double* out) {
  double acc[N] = {};
  for (size_t d = 0; d < dim; ++d) {
    const double ud = u[d];
    for (size_t c = 0; c < N; ++c) acc[c] += ud * v[c][d];
  }
  for (size_t c = 0; c < N; ++c) out[c] = acc[c];
}

/// DotChains over up to four rows.
void DotGroup(const double* u, const double* const* v, size_t count, size_t dim,
              double* out) {
  switch (count) {
    case 4: return DotChains<4>(u, v, dim, out);
    case 3: return DotChains<3>(u, v, dim, out);
    case 2: return DotChains<2>(u, v, dim, out);
    case 1: return DotChains<1>(u, v, dim, out);
    default: return;
  }
}

}  // namespace

void Entity2Vec::TrainPair(size_t center, size_t context, double lr, Rng* rng,
                           PairScratch* scratch) {
  const size_t dim = options_.dim;
  double* EDGE_RESTRICT u = input_.row_data(center);
  double* EDGE_RESTRICT grad = scratch->u_grad.data();
  std::fill(grad, grad + dim, 0.0);

  // The targets in update order: the context, then each negative that is not
  // the context. Sampling reads no embedding, so drawing every negative
  // before any update leaves the RNG stream unchanged.
  std::vector<size_t>& targets = scratch->targets;
  targets.assign(1, context);
  for (size_t n = 0; n < options_.negatives; ++n) {
    size_t neg = SampleNegative(rng);
    if (neg != context) targets.push_back(neg);
  }
  auto repeats = [&](size_t i) {
    return std::find(targets.begin(), targets.begin() + i, targets[i]) !=
           targets.begin() + i;
  };

  // u is fixed until the pair's last loop and updating target t writes only
  // row t of output_, so a target's first dot sees the same v_t before the
  // earlier targets' updates as after them: those dots run side by side, four
  // chains at a time. A repeated target is dotted after its earlier update.
  std::vector<double>& dots = scratch->dots;
  dots.resize(targets.size());
  for (size_t i = 0; i < targets.size();) {
    size_t index[4];
    const double* rows[4];
    size_t count = 0;
    for (; i < targets.size() && count < 4; ++i) {
      if (repeats(i)) continue;
      index[count] = i;
      rows[count] = output_.row_data(targets[i]);
      ++count;
    }
    double out[4];
    DotGroup(u, rows, count, dim, out);
    for (size_t c = 0; c < count; ++c) dots[index[c]] = out[c];
  }

  // u lives in input_, v in output_ and grad in caller scratch, so the three
  // restrict-qualified pointers never alias and the loops vectorize cleanly.
  for (size_t i = 0; i < targets.size(); ++i) {
    double* EDGE_RESTRICT v = output_.row_data(targets[i]);
    double z = dots[i];
    if (repeats(i)) {
      z = 0.0;
      for (size_t d = 0; d < dim; ++d) z += u[d] * v[d];
    }
    double g = (Sigmoid(z) - (i == 0 ? 1.0 : 0.0)) * lr;
    for (size_t d = 0; d < dim; ++d) {
      grad[d] += g * v[d];
      v[d] -= g * u[d];
    }
  }
  for (size_t d = 0; d < dim; ++d) u[d] -= grad[d];
}

std::vector<double> Entity2Vec::EmbeddingOf(const std::string& token) const {
  size_t id = vocab_.Lookup(token);
  if (id == text::Vocabulary::kNotFound) return {};
  return std::vector<double>(input_.row_data(id), input_.row_data(id) + options_.dim);
}

double Entity2Vec::CosineSimilarity(const std::string& a, const std::string& b) const {
  size_t ia = vocab_.Lookup(a);
  size_t ib = vocab_.Lookup(b);
  EDGE_CHECK(ia != text::Vocabulary::kNotFound) << "unknown token" << a;
  EDGE_CHECK(ib != text::Vocabulary::kNotFound) << "unknown token" << b;
  const double* va = input_.row_data(ia);
  const double* vb = input_.row_data(ib);
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t d = 0; d < options_.dim; ++d) {
    dot += va[d] * vb[d];
    na += va[d] * va[d];
    nb += vb[d] * vb[d];
  }
  double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0.0 ? dot / denom : 0.0;
}

std::vector<std::pair<std::string, double>> Entity2Vec::MostSimilar(
    const std::string& token, size_t k) const {
  size_t id = vocab_.Lookup(token);
  EDGE_CHECK(id != text::Vocabulary::kNotFound) << "unknown token" << token;
  std::vector<std::pair<std::string, double>> scored;
  for (size_t other = 0; other < vocab_.size(); ++other) {
    if (other == id) continue;
    scored.emplace_back(vocab_.TokenOf(other),
                        CosineSimilarity(token, vocab_.TokenOf(other)));
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace edge::embedding
