#include "edge/core/train_checkpoint.h"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "edge/common/file_util.h"
#include "edge/common/hash.h"

namespace edge::core {

namespace {

void WriteMatrix(std::ostream& os, const nn::Matrix& m) {
  os << m.rows() << " " << m.cols() << "\n";
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      os << m.At(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
    }
  }
}

/// Sizes a corrupt-but-checksum-valid file could still claim; reject before
/// they reach an allocation.
constexpr size_t kMaxMatrixDim = size_t{1} << 20;
constexpr size_t kMaxMatrixElems = size_t{1} << 26;
constexpr size_t kMaxMatrices = 4096;
constexpr size_t kMaxLossHistory = size_t{1} << 20;

Status ReadMatrix(std::istream& is, nn::Matrix* m, const char* what) {
  size_t rows = 0, cols = 0;
  is >> rows >> cols;
  if (is.fail()) return Status::InvalidArgument(std::string("truncated ") + what);
  if (rows == 0 || cols == 0 || rows > kMaxMatrixDim || cols > kMaxMatrixDim ||
      rows * cols > kMaxMatrixElems) {
    return Status::InvalidArgument(std::string("implausible dimensions for ") + what);
  }
  *m = nn::Matrix(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double v = 0.0;
      is >> v;
      if (is.fail()) return Status::InvalidArgument(std::string("truncated ") + what);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(std::string("non-finite value in ") + what);
      }
      m->At(r, c) = v;
    }
  }
  return Status::Ok();
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Status ExpectTag(std::istream& is, const char* tag) {
  std::string got;
  is >> got;
  if (is.fail() || got != tag) {
    return Status::InvalidArgument("expected '" + std::string(tag) + "' section, got '" +
                                   got + "'");
  }
  return Status::Ok();
}

}  // namespace

std::string TrainFingerprint(const EdgeConfig& config, size_t num_train_tweets,
                             size_t num_train_entities) {
  std::ostringstream fp;
  fp.precision(17);
  fp << "v1|" << config.display_name << "|seed=" << config.seed
     << "|epochs=" << config.epochs << "|batch=" << config.batch_size
     << "|M=" << config.num_components << "|dim=" << config.embedding_dim
     << "|auto=" << (config.auto_dim ? 1 : 0) << "|gcn=";
  for (size_t w : config.gcn_hidden) fp << w << ",";
  fp << "|attn=" << (config.use_attention ? 1 : 0)
     << "|decay=" << (config.lr_decay ? 1 : 0) << "|clip=" << config.grad_clip_norm
     << "|lr=" << config.adam.learning_rate << "|wd=" << config.adam.weight_decay
     << "|b1=" << config.adam.beta1 << "|b2=" << config.adam.beta2
     << "|eps=" << config.adam.epsilon
     << "|smin=" << config.sigma_min_km << "|rmax=" << config.rho_max
     << "|feat=" << static_cast<int>(config.feature_mode);
  // entity2vec makes the GCN's input features; Fit derives its dim and seed
  // from the fields above.
  const embedding::Entity2VecOptions& e2v = config.entity2vec;
  fp << "|e2v=" << e2v.window << "," << e2v.negatives << "," << e2v.learning_rate
     << "," << e2v.min_learning_rate << "," << e2v.epochs << ","
     << e2v.subsample_threshold << "," << e2v.min_count;
  fp << "|train=" << num_train_tweets << "|entities=" << num_train_entities;
  return fp.str();
}

std::string SerializeTrainState(const TrainState& state) {
  std::ostringstream os;
  os.precision(17);
  os << "EDGE-TRAINSTATE v1\n";
  os << "fingerprint " << state.fingerprint << "\n";
  os << "cursor " << state.next_epoch << " " << state.rollbacks_used << "\n";
  os << "scale " << state.lr_scale << " " << state.last_good_grad_norm << "\n";
  os << "rng " << state.rng.state << " " << state.rng.inc << " "
     << (state.rng.has_spare_normal ? 1 : 0) << " " << state.rng.spare_normal << "\n";
  os << "loss " << state.loss_history.size() << "\n";
  for (size_t i = 0; i < state.loss_history.size(); ++i) {
    os << state.loss_history[i]
       << (i + 1 == state.loss_history.size() ? "\n" : " ");
  }
  os << "params " << state.params.size() << "\n";
  for (const nn::Matrix& m : state.params) WriteMatrix(os, m);
  os << "adam " << state.adam.step_count << " " << state.adam.m.size() << "\n";
  for (const nn::Matrix& m : state.adam.m) WriteMatrix(os, m);
  for (const nn::Matrix& m : state.adam.v) WriteMatrix(os, m);
  std::string body = os.str();
  return body + "END " + ToHex16(Fnv1a64Bytes(body.data(), body.size())) + "\n";
}

Result<TrainState> ParseTrainState(const std::string& content) {
  // Checksum gate first: the file must end with exactly "END <16-hex>\n"
  // whose hash matches every preceding byte. Any strict truncation prefix of
  // a valid file fails here (the final newline is part of the contract, so
  // even a one-byte truncation is caught).
  if (content.empty() || content.back() != '\n') {
    return Status::InvalidArgument("train state not terminated by checksum line");
  }
  size_t body_end = content.rfind('\n', content.size() - 2);
  size_t last_line_start = body_end == std::string::npos ? 0 : body_end + 1;
  std::string last_line =
      content.substr(last_line_start, content.size() - 1 - last_line_start);
  if (last_line.size() != 4 + 16 || last_line.compare(0, 4, "END ") != 0) {
    return Status::InvalidArgument("train state missing END checksum line");
  }
  uint64_t want = 0;
  if (!FromHex16(last_line.substr(4), &want)) {
    return Status::InvalidArgument("malformed checksum hex");
  }
  uint64_t got = Fnv1a64Bytes(content.data(), last_line_start);
  if (got != want) {
    return Status::InvalidArgument("train state checksum mismatch (torn write?)");
  }

  std::istringstream is(content.substr(0, last_line_start));
  std::string magic, version;
  is >> magic >> version;
  if (is.fail() || magic != "EDGE-TRAINSTATE" || version != "v1") {
    return Status::InvalidArgument("bad train state header");
  }
  TrainState state;
  Status status = ExpectTag(is, "fingerprint");
  if (!status.ok()) return status;
  std::string fp_line;
  std::getline(is, fp_line);
  state.fingerprint = Trim(fp_line);
  if (state.fingerprint.empty()) {
    return Status::InvalidArgument("empty fingerprint");
  }

  status = ExpectTag(is, "cursor");
  if (!status.ok()) return status;
  is >> state.next_epoch >> state.rollbacks_used;
  if (is.fail() || state.next_epoch < 0 || state.rollbacks_used < 0) {
    return Status::InvalidArgument("bad epoch cursor");
  }

  status = ExpectTag(is, "scale");
  if (!status.ok()) return status;
  is >> state.lr_scale >> state.last_good_grad_norm;
  if (is.fail() || !(state.lr_scale > 0.0) || !std::isfinite(state.lr_scale) ||
      state.last_good_grad_norm < 0.0 || !std::isfinite(state.last_good_grad_norm)) {
    return Status::InvalidArgument("bad recovery scale line");
  }

  status = ExpectTag(is, "rng");
  if (!status.ok()) return status;
  int has_spare = 0;
  is >> state.rng.state >> state.rng.inc >> has_spare >> state.rng.spare_normal;
  if (is.fail() || (has_spare != 0 && has_spare != 1) ||
      !std::isfinite(state.rng.spare_normal)) {
    return Status::InvalidArgument("bad rng state");
  }
  state.rng.has_spare_normal = has_spare != 0;

  status = ExpectTag(is, "loss");
  if (!status.ok()) return status;
  size_t loss_count = 0;
  is >> loss_count;
  if (is.fail() || loss_count > kMaxLossHistory) {
    return Status::InvalidArgument("bad loss history length");
  }
  if (static_cast<int>(loss_count) != state.next_epoch) {
    return Status::InvalidArgument("loss history length disagrees with epoch cursor");
  }
  state.loss_history.resize(loss_count);
  for (double& v : state.loss_history) {
    is >> v;
    if (is.fail() || !std::isfinite(v)) {
      return Status::InvalidArgument("bad loss history value");
    }
  }

  status = ExpectTag(is, "params");
  if (!status.ok()) return status;
  size_t num_params = 0;
  is >> num_params;
  if (is.fail() || num_params == 0 || num_params > kMaxMatrices) {
    return Status::InvalidArgument("bad param count");
  }
  state.params.resize(num_params);
  for (nn::Matrix& m : state.params) {
    status = ReadMatrix(is, &m, "param matrix");
    if (!status.ok()) return status;
  }

  status = ExpectTag(is, "adam");
  if (!status.ok()) return status;
  size_t num_moments = 0;
  long long step_count = 0;
  is >> step_count >> num_moments;
  if (is.fail() || step_count < 0 || num_moments != num_params) {
    return Status::InvalidArgument("bad adam header");
  }
  state.adam.step_count = step_count;
  state.adam.m.resize(num_moments);
  state.adam.v.resize(num_moments);
  for (nn::Matrix& m : state.adam.m) {
    status = ReadMatrix(is, &m, "adam first moment");
    if (!status.ok()) return status;
  }
  for (nn::Matrix& m : state.adam.v) {
    status = ReadMatrix(is, &m, "adam second moment");
    if (!status.ok()) return status;
  }
  for (size_t i = 0; i < num_moments; ++i) {
    if (state.adam.m[i].rows() != state.params[i].rows() ||
        state.adam.m[i].cols() != state.params[i].cols() ||
        state.adam.v[i].rows() != state.params[i].rows() ||
        state.adam.v[i].cols() != state.params[i].cols()) {
      return Status::InvalidArgument("adam moment shape disagrees with params");
    }
  }
  return state;
}

Status SaveTrainStateAtomic(const std::string& path, const TrainState& state) {
  const std::string serialized = SerializeTrainState(state);
  // Write -> read back -> byte-compare, under retry: an injected short write
  // returns Ok from WriteFileAtomic (a torn file the OS reported durable),
  // so the verification pass is what actually guarantees the file on disk
  // is loadable. Byte equality is strictly stronger than re-parsing.
  return RetryWithBackoff(/*attempts=*/4, /*base_backoff_ms=*/1.0, [&]() {
    Status status = WriteFileAtomic(path, serialized, "io.checkpoint.write");
    if (!status.ok()) return status;
    std::string readback;
    status = ReadFileToString(path, &readback, "io.checkpoint.verify");
    if (!status.ok()) return status;
    if (readback != serialized) {
      return Status::Internal("checkpoint verification mismatch (torn write) at " +
                              path);
    }
    return Status::Ok();
  });
}

Result<TrainState> LoadTrainState(const std::string& path) {
  std::string content;
  Status status = RetryWithBackoff(/*attempts=*/4, /*base_backoff_ms=*/1.0, [&]() {
    return ReadFileToString(path, &content, "io.checkpoint.read");
  });
  if (!status.ok()) return status;
  return ParseTrainState(content);
}

}  // namespace edge::core
