#ifndef EDGE_CORE_MODEL_STORE_H_
#define EDGE_CORE_MODEL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "edge/common/status.h"
#include "edge/nn/matrix.h"

/// \file
/// `edge-model.v1` — the inference-checkpoint format and the mmap-backed
/// store that serves it (DESIGN.md §15). It is the only model file anything
/// reads or writes: `edge_cli train` saves one, serving loads and
/// hot-reloads one, and a system snapshot carries one as its model section.
///
/// The layout lets a loader `mmap` the file read-only and serve embedding
/// rows straight out of the page cache through nn::ConstRowSpan — hot reload
/// is a map-and-swap whose cost is independent of entity count
/// (StoreVerify::kFast), and cold load never materializes a second copy of
/// the embedding matrix. Matrices are raw IEEE-754 bytes and config scalars
/// round-trip exactly, so an fp64 store's predictions are bitwise those of
/// the trained model.
///
/// On-disk layout (all integers little-endian, fixed width):
///
///   [header: 128 bytes]
///     0   char[8]  magic "EDGEMDL1"
///     8   u32      format version (1)
///     12  u32      endianness probe 0x01020304
///     16  u64      total file size in bytes
///     24  u64      manifest offset
///     32  u32      section count
///     36  u32      embedding precision (EmbedPrecision)
///     40  u64      num_nodes (entity vocabulary size)
///     48  u64      hidden (embedding dimension)
///     56  char[16] build id, 16 hex digits (informational: the values are
///                  raw IEEE-754 bytes and load anywhere; the id localizes
///                  "which build wrote this" in debugging)
///     72  48 bytes reserved, must be zero
///     120 u64      header checksum: FNV-1a over bytes [0, 120)
///   [sections, each 64-byte aligned, zero-padded gaps]
///   [manifest: section_count x {u32 id, u32 zero, u64 offset, u64 size,
///    u64 fnv1a} followed by u64 FNV-1a over the entry bytes]
///
/// The manifest is written last and must end exactly at file_size, so a torn
/// write is caught by the size/offset gates before any checksum runs. Every
/// byte of the file is either covered by a checksum (header, sections,
/// manifest) or verified to be zero (reserved bytes, alignment gaps) under
/// StoreVerify::kFull — a single flipped bit anywhere is rejected.
///
/// Sections:
///   kConfig     line-oriented text (doubles at precision 17, which
///               round-trips them exactly): display name, mixture shape,
///               projection origin, fallback prior, coordinate scale,
///               attention bias — each gated for plausibility and
///               finiteness on load.
///   kVocab      u64 count, u64 blob_bytes, u64 offsets[count+1], name blob.
///               Names are stored in node-id order, so ids agree with the
///               trained model's EntityGraph ids (the serve-layer cache keys
///               on them).
///   kVocabIndex u64 ids[count], node ids sorted by name bytes — NodeId() is
///               a binary search over the mapped blob with zero load-time
///               index construction.
///   kEmbeddings raw row-major values at the header's precision: fp64/fp32
///               IEEE, fp16 (IEEE binary16), or int8 symmetric per-row.
///   kScales     double per-row dequantization scale (int8 only).
///   kAttentionQ, kHeadW, kHeadB
///               small fp64 matrices: u64 rows, u64 cols, doubles.

namespace edge::core {

class EdgeModel;

/// Storage precision of the embedding section. fp64 is exact (store-backed
/// predictions are bitwise identical to the trained model's) and zero-copy;
/// the narrower precisions trade accuracy for bytes and dequantize into a
/// caller scratch buffer on gather. BENCH_model_store.json records the
/// measured accuracy-vs-size trade on the bench worlds.
enum class EmbedPrecision : uint32_t {
  kFp64 = 0,
  kFp32 = 1,
  kFp16 = 2,  ///< IEEE binary16, round-to-nearest-even.
  kInt8 = 3,  ///< Symmetric per-row scale: value = scale * q, q in [-127,127].
};

/// "fp64" / "fp32" / "fp16" / "int8".
const char* EmbedPrecisionName(EmbedPrecision precision);
/// Parses the names above; false on anything else.
bool ParseEmbedPrecision(std::string_view name, EmbedPrecision* out);

/// How much of an opened file to verify before serving from it.
enum class StoreVerify {
  /// Structural gates plus every checksum and a finite scan of the small
  /// sections — O(file) at memcpy speed. The default; what `convert` and CI
  /// use.
  kFull,
  /// Structural gates only (header, manifest, bounds, alignment, shapes,
  /// small-matrix finiteness): O(sections) work, independent of entity
  /// count — the hot-reload map-and-swap path. Embedding/vocab payload bytes
  /// are bounds-checked per access instead of scanned, so corruption can
  /// surface as wrong values but never as out-of-bounds reads. Reserve for
  /// artifacts that were written by `convert` and verified kFull once.
  kFast,
};

/// A read-only, validated view of one edge-model.v1 file. The file is mapped
/// with mmap(PROT_READ) where available (falling back to an owned buffer),
/// and all accessors serve pointers into that mapping; the store must
/// outlive every span it hands out, which EdgeModel::LoadFromStore
/// guarantees by holding the shared_ptr. Immutable after Open, so any number
/// of threads may read concurrently.
class MmapModelStore {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Maps and validates `path` (gates per `verify`; see StoreVerify). Every
  /// malformation — truncation, bit flip, wrong magic/version, implausible
  /// dimensions, checksum mismatch — is a Status, never an abort, and is
  /// raised before any allocation is sized by untrusted input. Probes fault
  /// point "io.checkpoint.read".
  static Result<std::shared_ptr<const MmapModelStore>> Open(
      const std::string& path, StoreVerify verify = StoreVerify::kFull);

  /// As Open, over an in-memory copy of the bytes (no mapping). This is the
  /// snapshot-section validation path and the portable fallback.
  static Result<std::shared_ptr<const MmapModelStore>> FromBytes(
      std::string bytes, StoreVerify verify = StoreVerify::kFull);

  ~MmapModelStore();
  MmapModelStore(const MmapModelStore&) = delete;
  MmapModelStore& operator=(const MmapModelStore&) = delete;

  size_t num_nodes() const { return num_nodes_; }
  size_t hidden() const { return hidden_; }
  EmbedPrecision precision() const { return precision_; }
  /// True when EmbeddingRow returns pointers into the mapping itself.
  bool zero_copy() const { return precision_ == EmbedPrecision::kFp64; }
  size_t file_size() const { return size_; }
  /// The 16-hex build id recorded at write time.
  std::string build_id() const;
  /// Whole-file bounds, for tests asserting a span aliases the mapping.
  const char* raw_data() const { return data_; }

  /// Row `node` of the embedding matrix. fp64 stores return a span aliasing
  /// the mapping (zero-copy; no write to *scratch). Quantized stores
  /// dequantize into *scratch — resized to hidden() — and return a span over
  /// it, so the span is invalidated by the next call with the same scratch.
  /// Non-finite dequantized values (corrupt fp16/fp32 bits under kFast)
  /// clamp to 0.0 rather than poisoning downstream mixture math.
  nn::ConstRowSpan EmbeddingRow(size_t node, std::vector<double>* scratch) const;

  /// Decodes row `node` into out[0..hidden()) at fp64, for gather loops that
  /// pack several rows into one buffer (EdgeModel's attention path). Same
  /// non-finite clamping as EmbeddingRow. `node` must be < num_nodes().
  void DequantizeRow(size_t node, double* out) const;

  /// Node id of `name`, or kNotFound. Binary search over the mapped sorted
  /// index: O(log V) per lookup, zero setup at load time. Total over
  /// arbitrary index bytes (kFast): corrupt entries degrade to kNotFound.
  size_t NodeId(std::string_view name) const;

  /// Name of node `id` ("" for out-of-range ids or corrupt offsets).
  std::string_view NodeName(size_t id) const;

  /// Parsed small sections (copied out at Open; fp64 exact).
  const nn::Matrix& attention_q() const { return attention_q_; }
  const nn::Matrix& head_w() const { return head_w_; }
  const nn::Matrix& head_b() const { return head_b_; }
  const std::string& display_name() const { return display_name_; }
  size_t num_components() const { return num_components_; }
  double sigma_min_km() const { return sigma_min_km_; }
  double rho_max() const { return rho_max_; }
  bool use_attention() const { return use_attention_; }
  double origin_lat() const { return origin_lat_; }
  double origin_lon() const { return origin_lon_; }
  double attention_b() const { return attention_b_; }
  double fallback_x() const { return fallback_x_; }
  double fallback_y() const { return fallback_y_; }
  double fallback_sigma_km() const { return fallback_sigma_km_; }
  double coord_scale_km() const { return coord_scale_km_; }

 private:
  MmapModelStore() = default;
  static Result<std::shared_ptr<const MmapModelStore>> Validate(
      std::shared_ptr<MmapModelStore> store, StoreVerify verify);

  /// Either a live mmap region (mapped_ != nullptr) or owned bytes.
  const char* data_ = nullptr;
  size_t size_ = 0;
  void* mapped_ = nullptr;
  std::string owned_;

  /// Section payload views into data_.
  const char* vocab_offsets_ = nullptr;  ///< u64[num_nodes_ + 1].
  const char* vocab_blob_ = nullptr;
  size_t vocab_blob_bytes_ = 0;
  const char* vocab_index_ = nullptr;  ///< u64[num_nodes_].
  const char* embeddings_ = nullptr;
  const char* scales_ = nullptr;  ///< double[num_nodes_] (int8 only).

  size_t num_nodes_ = 0;
  size_t hidden_ = 0;
  EmbedPrecision precision_ = EmbedPrecision::kFp64;
  char build_id_[16] = {};

  nn::Matrix attention_q_;
  nn::Matrix head_w_;
  nn::Matrix head_b_;
  std::string display_name_;
  size_t num_components_ = 0;
  double sigma_min_km_ = 0.0;
  double rho_max_ = 0.0;
  bool use_attention_ = true;
  double origin_lat_ = 0.0;
  double origin_lon_ = 0.0;
  double attention_b_ = 0.0;
  double fallback_x_ = 0.0;
  double fallback_y_ = 0.0;
  double fallback_sigma_km_ = 1.0;
  double coord_scale_km_ = 1.0;
};

/// Serializes a fitted (or loaded) model's inference state into edge-model.v1
/// bytes at the given embedding precision. At fp64 the output is canonical:
/// re-serializing a model loaded from it reproduces the bytes exactly.
Status SerializeModelStore(const EdgeModel& model, EmbedPrecision precision,
                           std::string* out);

/// SerializeModelStore + WriteFileAtomic (tmp + fsync + rename).
Status SaveModelStoreAtomic(const EdgeModel& model, EmbedPrecision precision,
                            const std::string& path);

/// MmapModelStore::Open(path, verify) + EdgeModel::LoadFromStore: the one
/// file loader the tools share.
Result<std::unique_ptr<EdgeModel>> LoadInferenceAuto(
    const std::string& path, StoreVerify verify = StoreVerify::kFull);

/// IEEE binary16 conversions (software; round-to-nearest-even on narrowing).
/// Exposed for the quantization tests.
uint16_t Fp16FromDouble(double v);
double Fp16ToDouble(uint16_t h);

}  // namespace edge::core

#endif  // EDGE_CORE_MODEL_STORE_H_
