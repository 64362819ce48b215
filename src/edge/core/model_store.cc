#include "edge/core/model_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>

#include "edge/common/check.h"
#include "edge/common/file_util.h"
#include "edge/common/hash.h"
#include "edge/core/edge_config.h"
#include "edge/core/edge_model.h"
#include "edge/fault/fault.h"

namespace edge::core {

namespace {

/// First bytes of every edge-model.v1 file.
constexpr char kMagic[8] = {'E', 'D', 'G', 'E', 'M', 'D', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kEndianProbe = 0x01020304;
constexpr size_t kHeaderSize = 128;
constexpr size_t kHeaderChecksumOffset = 120;
constexpr size_t kAlign = 64;
constexpr size_t kManifestEntrySize = 32;
// Allocation gate: dimensions above this are a corrupt header, not a model.
constexpr uint64_t kMaxDim = uint64_t{1} << 26;
constexpr uint32_t kMaxSections = 64;
// The config section is a handful of text lines; anything bigger is corrupt.
constexpr uint64_t kMaxConfigBytes = uint64_t{1} << 16;

enum SectionId : uint32_t {
  kSectionConfig = 1,
  kSectionVocab = 2,
  kSectionVocabIndex = 3,
  kSectionEmbeddings = 4,
  kSectionScales = 5,
  kSectionAttentionQ = 6,
  kSectionHeadW = 7,
  kSectionHeadB = 8,
};

// All multi-byte reads go through memcpy: section offsets are 64-byte aligned
// relative to the file, but the FromBytes base pointer only guarantees
// allocator alignment.
uint16_t ReadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
double ReadF64(const char* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
float ReadF32(const char* p) {
  float v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32(std::string* s, uint32_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* s, uint64_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendF64(std::string* s, double v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PatchU64(std::string* s, size_t offset, uint64_t v) {
  std::memcpy(s->data() + offset, &v, sizeof(v));
}

size_t ElementSize(EmbedPrecision precision) {
  switch (precision) {
    case EmbedPrecision::kFp64: return 8;
    case EmbedPrecision::kFp32: return 4;
    case EmbedPrecision::kFp16: return 2;
    case EmbedPrecision::kInt8: return 1;
  }
  return 0;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("model store: " + what);
}

/// Writer-side build id: ties an artifact to the toolchain that produced it
/// for debugging. Informational only — values are raw IEEE-754 bytes and load
/// under any build; the loader never compares it.
std::string LocalBuildId() {
  uint64_t h = Fnv1a64(__VERSION__);
  h = Fnv1a64("edge-model.v1", h);
  h = Fnv1a64Bytes(reinterpret_cast<const char*>(&kEndianProbe), 4, h);
  return ToHex16(h);
}

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t fnv = 0;
};

}  // namespace

const char* EmbedPrecisionName(EmbedPrecision precision) {
  switch (precision) {
    case EmbedPrecision::kFp64: return "fp64";
    case EmbedPrecision::kFp32: return "fp32";
    case EmbedPrecision::kFp16: return "fp16";
    case EmbedPrecision::kInt8: return "int8";
  }
  return "unknown";
}

bool ParseEmbedPrecision(std::string_view name, EmbedPrecision* out) {
  EDGE_CHECK(out != nullptr);
  if (name == "fp64") *out = EmbedPrecision::kFp64;
  else if (name == "fp32") *out = EmbedPrecision::kFp32;
  else if (name == "fp16") *out = EmbedPrecision::kFp16;
  else if (name == "int8") *out = EmbedPrecision::kInt8;
  else return false;
  return true;
}

uint16_t Fp16FromDouble(double v) {
  float f = static_cast<float>(v);
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  uint16_t sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  uint32_t exp = (x >> 23) & 0xffu;
  uint32_t mant = x & 0x007fffffu;
  if (exp == 0xffu) {  // Inf / NaN: keep the class, collapse the payload.
    return static_cast<uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  int32_t e = static_cast<int32_t>(exp) - 127 + 15;
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7c00u);  // Overflow -> inf.
  if (e <= 0) {
    if (e < -10) return sign;  // Underflows even the smallest subnormal.
    // Subnormal half: shift the (implicit-1) mantissa into place,
    // round-to-nearest-even on the dropped bits.
    mant |= 0x00800000u;
    uint32_t shift = static_cast<uint32_t>(14 - e);
    uint16_t h = static_cast<uint16_t>(mant >> shift);
    uint32_t rem = mant & ((1u << shift) - 1u);
    uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return static_cast<uint16_t>(sign | h);
  }
  uint16_t h = static_cast<uint16_t>((static_cast<uint32_t>(e) << 10) | (mant >> 13));
  uint32_t rem = mant & 0x1fffu;
  // Round to nearest even; a carry out of the mantissa bumps the exponent,
  // which is exactly the right result (and saturates to inf at e == 31).
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return static_cast<uint16_t>(sign | h);
}

double Fp16ToDouble(uint16_t h) {
  uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // +/- 0.
    } else {
      // Subnormal half (value = mant * 2^-24): renormalize into a float
      // exponent. After `shift` left shifts the leading bit sits at 2^10, so
      // the value is 1.f * 2^(-14 - shift).
      int shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3ffu;
      bits = sign | (static_cast<uint32_t>(127 - 14 - shift) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7f800000u | (mant << 13);  // Inf / NaN.
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

MmapModelStore::~MmapModelStore() {
  if (mapped_ != nullptr) ::munmap(mapped_, size_);
}

std::string MmapModelStore::build_id() const {
  return std::string(build_id_, sizeof(build_id_));
}

Result<std::shared_ptr<const MmapModelStore>> MmapModelStore::Open(
    const std::string& path, StoreVerify verify) {
  // The chaos suite's transient-read drills arm this point.
  if (EDGE_FAULT_POINT("io.checkpoint.read") == fault::Action::kError) {
    return Status::Internal("injected fault: io.checkpoint.read " + path);
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderSize) {
    ::close(fd);
    return Corrupt("file smaller than header (" + path + ")");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    // Portable fallback: validate over an owned copy instead.
    std::string bytes;
    Status status = ReadFileToString(path, &bytes, "io.checkpoint.read");
    if (!status.ok()) return status;
    return FromBytes(std::move(bytes), verify);
  }
  std::shared_ptr<MmapModelStore> store(new MmapModelStore());
  store->mapped_ = mapped;
  store->data_ = static_cast<const char*>(mapped);
  store->size_ = size;
  return Validate(std::move(store), verify);
}

Result<std::shared_ptr<const MmapModelStore>> MmapModelStore::FromBytes(
    std::string bytes, StoreVerify verify) {
  std::shared_ptr<MmapModelStore> store(new MmapModelStore());
  store->owned_ = std::move(bytes);
  store->data_ = store->owned_.data();
  store->size_ = store->owned_.size();
  return Validate(std::move(store), verify);
}

Result<std::shared_ptr<const MmapModelStore>> MmapModelStore::Validate(
    std::shared_ptr<MmapModelStore> store, StoreVerify verify) {
  // Untrusted-input discipline: every gate below returns a Status — never an
  // abort, never an OOB read — and every offset/size is bounds-checked before
  // it is dereferenced or sizes an allocation. Gates run outside-in: header, then manifest, then
  // per-section structure, then (kFull only) content checksums and scans.
  const char* data = store->data_;
  const size_t size = store->size_;
  const bool full = verify == StoreVerify::kFull;

  // --- Header. ---
  if (size < kHeaderSize) return Corrupt("file smaller than header");
  if (std::memcmp(data, kMagic, 8) != 0) return Corrupt("bad magic");
  if (ReadU32(data + 8) != kFormatVersion) {
    return Corrupt("unsupported format version");
  }
  if (ReadU32(data + 12) != kEndianProbe) {
    return Corrupt("endianness mismatch (file written on a foreign-endian host)");
  }
  if (ReadU64(data + kHeaderChecksumOffset) !=
      Fnv1a64Bytes(data, kHeaderChecksumOffset)) {
    return Corrupt("header checksum mismatch");
  }
  const uint64_t file_size = ReadU64(data + 16);
  const uint64_t manifest_offset = ReadU64(data + 24);
  const uint32_t section_count = ReadU32(data + 32);
  const uint32_t precision_raw = ReadU32(data + 36);
  const uint64_t num_nodes = ReadU64(data + 40);
  const uint64_t hidden = ReadU64(data + 48);
  std::memcpy(store->build_id_, data + 56, sizeof(store->build_id_));
  for (size_t i = 72; i < kHeaderChecksumOffset; ++i) {
    if (data[i] != 0) return Corrupt("reserved header bytes not zero");
  }
  if (file_size != size) {
    return Corrupt("header size does not match file (truncated or appended)");
  }
  if (precision_raw > static_cast<uint32_t>(EmbedPrecision::kInt8)) {
    return Corrupt("unknown embedding precision");
  }
  const EmbedPrecision precision = static_cast<EmbedPrecision>(precision_raw);
  if (num_nodes == 0 || hidden == 0 || num_nodes > kMaxDim || hidden > kMaxDim) {
    return Corrupt("implausible embedding dimensions");
  }

  // --- Manifest. ---
  if (section_count == 0 || section_count > kMaxSections) {
    return Corrupt("implausible section count");
  }
  const uint64_t manifest_bytes =
      static_cast<uint64_t>(section_count) * kManifestEntrySize;
  if (manifest_offset < kHeaderSize || manifest_offset > size ||
      manifest_offset + manifest_bytes + 8 != size) {
    return Corrupt("manifest bounds do not close the file");
  }
  const char* manifest = data + manifest_offset;
  if (ReadU64(manifest + manifest_bytes) !=
      Fnv1a64Bytes(manifest, manifest_bytes)) {
    return Corrupt("manifest checksum mismatch");
  }

  SectionEntry sections[kMaxSections];
  uint64_t prev_end = kHeaderSize;
  bool seen[kMaxSections + 1] = {};
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* e = manifest + static_cast<size_t>(i) * kManifestEntrySize;
    SectionEntry entry;
    entry.id = ReadU32(e);
    if (ReadU32(e + 4) != 0) return Corrupt("nonzero manifest entry padding");
    entry.offset = ReadU64(e + 8);
    entry.size = ReadU64(e + 16);
    entry.fnv = ReadU64(e + 24);
    if (entry.id < kSectionConfig || entry.id > kSectionHeadB) {
      return Corrupt("unknown section id");
    }
    if (seen[entry.id]) return Corrupt("duplicate section");
    seen[entry.id] = true;
    if (entry.offset % kAlign != 0) return Corrupt("misaligned section");
    // Sections are laid out in manifest order, back to back up to alignment:
    // the gap before each section is < kAlign and must be zero, so every
    // inter-section byte is accounted for at O(sections) cost.
    if (entry.offset < prev_end || entry.offset - prev_end >= kAlign) {
      return Corrupt("section gap out of order or oversized");
    }
    for (uint64_t b = prev_end; b < entry.offset; ++b) {
      if (data[b] != 0) return Corrupt("nonzero alignment padding");
    }
    if (entry.size > size - entry.offset) return Corrupt("section overruns file");
    prev_end = entry.offset + entry.size;
    if (prev_end > manifest_offset) return Corrupt("section overlaps manifest");
    sections[i] = entry;
  }
  if (prev_end != manifest_offset) {
    return Corrupt("unaccounted bytes between sections and manifest");
  }
  auto find = [&](uint32_t id) -> const SectionEntry* {
    for (uint32_t i = 0; i < section_count; ++i) {
      if (sections[i].id == id) return &sections[i];
    }
    return nullptr;
  };
  const SectionEntry* config_s = find(kSectionConfig);
  const SectionEntry* vocab_s = find(kSectionVocab);
  const SectionEntry* index_s = find(kSectionVocabIndex);
  const SectionEntry* embed_s = find(kSectionEmbeddings);
  const SectionEntry* scales_s = find(kSectionScales);
  const SectionEntry* attn_s = find(kSectionAttentionQ);
  const SectionEntry* head_w_s = find(kSectionHeadW);
  const SectionEntry* head_b_s = find(kSectionHeadB);
  if (config_s == nullptr || vocab_s == nullptr || index_s == nullptr ||
      embed_s == nullptr || attn_s == nullptr || head_w_s == nullptr ||
      head_b_s == nullptr) {
    return Corrupt("missing required section");
  }
  if ((precision == EmbedPrecision::kInt8) != (scales_s != nullptr)) {
    return Corrupt("scales section inconsistent with precision");
  }

  // --- Content checksums (kFull: O(file) at hashing speed). ---
  if (full) {
    for (uint32_t i = 0; i < section_count; ++i) {
      if (Fnv1a64Bytes(data + sections[i].offset, sections[i].size) !=
          sections[i].fnv) {
        return Corrupt("section checksum mismatch");
      }
    }
  }

  // --- Config section: plausibility and finiteness gates. ---
  if (config_s->size == 0 || config_s->size > kMaxConfigBytes) {
    return Corrupt("implausible config section size");
  }
  ModelHead& head = store->head_;
  {
    std::istringstream is(
        std::string(data + config_s->offset, config_s->size));
    int use_attention = 1;
    is >> head.display_name;
    is >> head.num_components >> head.sigma_min_km >> head.rho_max >>
        use_attention;
    if (is.fail()) return Corrupt("truncated or unparsable config section");
    head.use_attention = use_attention != 0;
    constexpr size_t kMaxComponents = 1024;
    if (head.num_components == 0 || head.num_components > kMaxComponents) {
      return Corrupt("implausible mixture component count");
    }
    EdgeConfig config;
    config.num_components = head.num_components;
    config.sigma_min_km = head.sigma_min_km;
    config.rho_max = head.rho_max;
    Status config_status = config.Validate();
    if (!config_status.ok()) {
      return Corrupt("corrupt config: " + config_status.ToString());
    }
    is >> head.origin.lat >> head.origin.lon;
    is >> head.fallback_mean.x >> head.fallback_mean.y >> head.fallback_sigma_km;
    is >> head.coord_scale_km;
    is >> head.attention_b;
    if (is.fail()) return Corrupt("truncated or unparsable config section");
    if (!(head.origin.lat >= -90.0 && head.origin.lat <= 90.0) ||
        !(head.origin.lon >= -360.0 && head.origin.lon <= 360.0)) {
      return Corrupt("projection origin out of range");
    }
    if (!std::isfinite(head.attention_b) || !std::isfinite(head.fallback_mean.x) ||
        !std::isfinite(head.fallback_mean.y)) {
      return Corrupt("non-finite scalar parameters");
    }
    if (!(head.fallback_sigma_km > 0.0) || !std::isfinite(head.fallback_sigma_km)) {
      return Corrupt("non-positive fallback sigma");
    }
    if (!(head.coord_scale_km > 0.0) || !std::isfinite(head.coord_scale_km)) {
      return Corrupt("non-positive coordinate scale");
    }
  }

  // --- Vocabulary: count, blob size, offsets array, name blob. ---
  {
    const char* p = data + vocab_s->offset;
    if (vocab_s->size < 16) return Corrupt("truncated vocabulary section");
    const uint64_t count = ReadU64(p);
    const uint64_t blob_bytes = ReadU64(p + 8);
    if (count != num_nodes) return Corrupt("vocabulary count mismatch");
    // (count + 1) * 8 cannot overflow: count <= kMaxDim.
    const uint64_t offsets_bytes = (count + 1) * 8;
    if (blob_bytes > size || vocab_s->size != 16 + offsets_bytes + blob_bytes) {
      return Corrupt("vocabulary section size mismatch");
    }
    store->vocab_offsets_ = p + 16;
    store->vocab_blob_ = p + 16 + offsets_bytes;
    store->vocab_blob_bytes_ = blob_bytes;
  }
  if (index_s->size != num_nodes * 8) {
    return Corrupt("vocabulary index size mismatch");
  }
  store->vocab_index_ = data + index_s->offset;
  if (full) {
    // O(V) scan: offsets monotone and in-bounds, names non-empty, index a
    // strictly-sorted view of them. kFast skips this; lookups bounds-check
    // per access instead.
    uint64_t prev = ReadU64(store->vocab_offsets_);
    if (prev != 0) return Corrupt("vocabulary offsets must start at zero");
    for (uint64_t n = 1; n <= num_nodes; ++n) {
      uint64_t off = ReadU64(store->vocab_offsets_ + n * 8);
      if (off <= prev || off > store->vocab_blob_bytes_) {
        return Corrupt("non-monotone vocabulary offsets");
      }
      prev = off;
    }
    if (prev != store->vocab_blob_bytes_) {
      return Corrupt("vocabulary blob has trailing bytes");
    }
    store->num_nodes_ = num_nodes;  // NodeName needs these set to read.
    store->hidden_ = hidden;
    std::string_view prev_name;
    for (uint64_t n = 0; n < num_nodes; ++n) {
      uint64_t id = ReadU64(store->vocab_index_ + n * 8);
      if (id >= num_nodes) return Corrupt("vocabulary index id out of range");
      std::string_view name = store->NodeName(id);
      if (n > 0 && !(prev_name < name)) {
        return Corrupt("vocabulary index not strictly sorted");
      }
      prev_name = name;
    }
  }
  store->num_nodes_ = num_nodes;
  store->hidden_ = hidden;
  store->precision_ = precision;

  // --- Embeddings (+ int8 scales). ---
  // num_nodes * hidden * elem cannot overflow: both factors <= 2^26.
  const uint64_t elem = ElementSize(precision);
  if (embed_s->size != num_nodes * hidden * elem) {
    return Corrupt("embedding section size mismatch");
  }
  store->embeddings_ = data + embed_s->offset;
  if (scales_s != nullptr) {
    if (scales_s->size != num_nodes * 8) {
      return Corrupt("scales section size mismatch");
    }
    store->scales_ = data + scales_s->offset;
  }
  if (full) {
    const char* p = store->embeddings_;
    const uint64_t total = num_nodes * hidden;
    switch (precision) {
      case EmbedPrecision::kFp64:
        for (uint64_t i = 0; i < total; ++i) {
          if (!std::isfinite(ReadF64(p + i * 8))) {
            return Corrupt("non-finite embedding value");
          }
        }
        break;
      case EmbedPrecision::kFp32:
        for (uint64_t i = 0; i < total; ++i) {
          if (!std::isfinite(ReadF32(p + i * 4))) {
            return Corrupt("non-finite embedding value");
          }
        }
        break;
      case EmbedPrecision::kFp16:
        for (uint64_t i = 0; i < total; ++i) {
          // Exponent 31 is inf/NaN in binary16.
          if ((ReadU16(p + i * 2) & 0x7c00u) == 0x7c00u) {
            return Corrupt("non-finite embedding value");
          }
        }
        break;
      case EmbedPrecision::kInt8:
        for (uint64_t i = 0; i < total; ++i) {
          // Symmetric quantization never emits -128.
          if (static_cast<int8_t>(p[i]) == -128) {
            return Corrupt("out-of-range int8 embedding value");
          }
        }
        for (uint64_t n = 0; n < num_nodes; ++n) {
          double scale = ReadF64(store->scales_ + n * 8);
          if (!std::isfinite(scale) || scale < 0.0) {
            return Corrupt("invalid quantization scale");
          }
        }
        break;
    }
  }

  // --- Small matrices (always parsed and copied out; O(hidden * theta)). ---
  const size_t theta_dim = 6 * head.num_components;
  auto parse_matrix = [&](const SectionEntry* s, size_t want_rows,
                          size_t want_cols, nn::Matrix* out,
                          const char* what) -> Status {
    if (s->size < 16) return Corrupt(std::string("truncated ") + what);
    const char* p = data + s->offset;
    const uint64_t rows = ReadU64(p);
    const uint64_t cols = ReadU64(p + 8);
    if (rows != want_rows || cols != want_cols) {
      return Corrupt(std::string(what) + " dimension mismatch");
    }
    if (s->size != 16 + rows * cols * 8) {
      return Corrupt(std::string(what) + " size mismatch");
    }
    *out = nn::Matrix(rows, cols);
    for (uint64_t r = 0; r < rows; ++r) {
      for (uint64_t c = 0; c < cols; ++c) {
        double v = ReadF64(p + 16 + (r * cols + c) * 8);
        if (!std::isfinite(v)) {
          return Corrupt(std::string("non-finite value in ") + what);
        }
        out->At(r, c) = v;
      }
    }
    return Status::Ok();
  };
  Status status =
      parse_matrix(attn_s, hidden, 1, &head.attention_q, "attention q");
  if (status.ok()) {
    status = parse_matrix(head_w_s, hidden, theta_dim, &head.head_w, "head weights");
  }
  if (status.ok()) {
    status = parse_matrix(head_b_s, 1, theta_dim, &head.head_b, "head bias");
  }
  if (!status.ok()) return status;

  return std::shared_ptr<const MmapModelStore>(std::move(store));
}

void MmapModelStore::DequantizeRow(size_t node, double* out) const {
  EDGE_CHECK(node < num_nodes_) << "embedding row out of range";
  const size_t h = hidden_;
  switch (precision_) {
    case EmbedPrecision::kFp64:
      std::memcpy(out, embeddings_ + node * h * 8, h * 8);
      break;
    case EmbedPrecision::kFp32: {
      const char* p = embeddings_ + node * h * 4;
      for (size_t d = 0; d < h; ++d) {
        double v = static_cast<double>(ReadF32(p + d * 4));
        out[d] = std::isfinite(v) ? v : 0.0;
      }
      break;
    }
    case EmbedPrecision::kFp16: {
      const char* p = embeddings_ + node * h * 2;
      for (size_t d = 0; d < h; ++d) {
        double v = Fp16ToDouble(ReadU16(p + d * 2));
        out[d] = std::isfinite(v) ? v : 0.0;
      }
      break;
    }
    case EmbedPrecision::kInt8: {
      double scale = ReadF64(scales_ + node * 8);
      if (!std::isfinite(scale) || scale < 0.0) scale = 0.0;
      const char* p = embeddings_ + node * h;
      for (size_t d = 0; d < h; ++d) {
        out[d] = scale * static_cast<double>(static_cast<int8_t>(p[d]));
      }
      break;
    }
  }
}

nn::ConstRowSpan MmapModelStore::EmbeddingRow(
    size_t node, std::vector<double>* scratch) const {
  EDGE_CHECK(node < num_nodes_) << "embedding row out of range";
  if (precision_ == EmbedPrecision::kFp64) {
    return {reinterpret_cast<const double*>(embeddings_ + node * hidden_ * 8),
            hidden_};
  }
  EDGE_CHECK(scratch != nullptr) << "quantized row needs a scratch buffer";
  scratch->resize(hidden_);
  DequantizeRow(node, scratch->data());
  return {scratch->data(), hidden_};
}

size_t MmapModelStore::NodeId(std::string_view name) const {
  size_t lo = 0;
  size_t hi = num_nodes_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    uint64_t id = ReadU64(vocab_index_ + mid * 8);
    if (id >= num_nodes_) return kNotFound;  // Corrupt index under kFast.
    std::string_view mid_name = NodeName(id);
    if (mid_name == name) return id;
    if (mid_name < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kNotFound;
}

std::string_view MmapModelStore::NodeName(size_t id) const {
  if (id >= num_nodes_) return {};
  uint64_t a = ReadU64(vocab_offsets_ + id * 8);
  uint64_t b = ReadU64(vocab_offsets_ + (id + 1) * 8);
  if (a > b || b > vocab_blob_bytes_) return {};  // Corrupt offsets under kFast.
  return {vocab_blob_ + a, static_cast<size_t>(b - a)};
}

Status EncodeModelStore(const ModelHead& head,
                        const std::vector<std::string_view>& names,
                        const nn::Matrix& embeddings, EmbedPrecision precision,
                        std::string* out) {
  EDGE_CHECK(out != nullptr);
  const size_t num_nodes = names.size();
  const size_t hidden = embeddings.cols();
  if (num_nodes == 0 || hidden == 0 || embeddings.rows() != num_nodes) {
    return Status::InvalidArgument("store needs one embedding row per name");
  }

  // --- Section payloads. ---
  std::string config_blob;
  {
    // precision(17) round-trips doubles exactly, so config scalars survive
    // a load and re-serialization bitwise.
    std::ostringstream os;
    os.precision(17);
    os << head.display_name << "\n";
    os << head.num_components << " " << head.sigma_min_km << " " << head.rho_max
       << " " << (head.use_attention ? 1 : 0) << "\n";
    os << head.origin.lat << " " << head.origin.lon << "\n";
    os << head.fallback_mean.x << " " << head.fallback_mean.y << " "
       << head.fallback_sigma_km << "\n";
    os << head.coord_scale_km << "\n";
    os << head.attention_b << "\n";
    config_blob = os.str();
  }

  std::string vocab_blob;
  {
    std::string offsets;
    std::string blob;
    AppendU64(&vocab_blob, num_nodes);
    for (std::string_view name : names) {
      AppendU64(&offsets, blob.size());
      blob.append(name.data(), name.size());
    }
    AppendU64(&offsets, blob.size());
    AppendU64(&vocab_blob, blob.size());
    vocab_blob += offsets;
    vocab_blob += blob;
  }
  std::string index_blob;
  {
    std::vector<uint64_t> ids(num_nodes);
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(),
              [&](uint64_t a, uint64_t b) { return names[a] < names[b]; });
    for (uint64_t id : ids) AppendU64(&index_blob, id);
  }

  std::string embed_blob;
  std::string scales_blob;
  {
    embed_blob.reserve(num_nodes * hidden * ElementSize(precision));
    for (size_t n = 0; n < num_nodes; ++n) {
      const double* row = embeddings.row_data(n);
      switch (precision) {
        case EmbedPrecision::kFp64:
          for (size_t d = 0; d < hidden; ++d) AppendF64(&embed_blob, row[d]);
          break;
        case EmbedPrecision::kFp32:
          for (size_t d = 0; d < hidden; ++d) {
            float f = static_cast<float>(row[d]);
            embed_blob.append(reinterpret_cast<const char*>(&f), sizeof(f));
          }
          break;
        case EmbedPrecision::kFp16:
          for (size_t d = 0; d < hidden; ++d) {
            uint16_t h = Fp16FromDouble(row[d]);
            embed_blob.append(reinterpret_cast<const char*>(&h), sizeof(h));
          }
          break;
        case EmbedPrecision::kInt8: {
          double maxabs = 0.0;
          for (size_t d = 0; d < hidden; ++d) {
            maxabs = std::max(maxabs, std::fabs(row[d]));
          }
          // All-zero rows get scale 0 (every q is 0); otherwise the row's
          // extreme maps to +/-127.
          double scale = maxabs > 0.0 ? maxabs / 127.0 : 0.0;
          AppendF64(&scales_blob, scale);
          for (size_t d = 0; d < hidden; ++d) {
            double q = scale > 0.0 ? std::round(row[d] / scale) : 0.0;
            q = std::min(127.0, std::max(-127.0, q));
            char byte = static_cast<char>(static_cast<int8_t>(q));
            embed_blob.push_back(byte);
          }
          break;
        }
      }
    }
  }

  auto matrix_blob = [](const nn::Matrix& m) {
    std::string blob;
    AppendU64(&blob, m.rows());
    AppendU64(&blob, m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) AppendF64(&blob, m.At(r, c));
    }
    return blob;
  };
  struct Pending {
    uint32_t id;
    const std::string* payload;
  };
  std::string attn_blob = matrix_blob(head.attention_q);
  std::string head_w_blob = matrix_blob(head.head_w);
  std::string head_b_blob = matrix_blob(head.head_b);
  std::vector<Pending> pending = {
      {kSectionConfig, &config_blob},   {kSectionVocab, &vocab_blob},
      {kSectionVocabIndex, &index_blob}, {kSectionEmbeddings, &embed_blob},
  };
  if (precision == EmbedPrecision::kInt8) {
    pending.push_back({kSectionScales, &scales_blob});
  }
  pending.push_back({kSectionAttentionQ, &attn_blob});
  pending.push_back({kSectionHeadW, &head_w_blob});
  pending.push_back({kSectionHeadB, &head_b_blob});

  // --- Assemble: header, aligned sections, manifest; patch header last. ---
  std::string& file = *out;
  file.clear();
  file.append(kMagic, 8);
  AppendU32(&file, kFormatVersion);
  AppendU32(&file, kEndianProbe);
  AppendU64(&file, 0);  // file_size, patched below.
  AppendU64(&file, 0);  // manifest_offset, patched below.
  AppendU32(&file, static_cast<uint32_t>(pending.size()));
  AppendU32(&file, static_cast<uint32_t>(precision));
  AppendU64(&file, num_nodes);
  AppendU64(&file, hidden);
  file += LocalBuildId();
  file.append(kHeaderChecksumOffset - file.size(), '\0');  // Reserved.
  AppendU64(&file, 0);  // Header checksum, patched below.
  EDGE_CHECK(file.size() == kHeaderSize);

  std::vector<SectionEntry> manifest_entries;
  manifest_entries.reserve(pending.size());
  for (const Pending& p : pending) {
    file.append((kAlign - file.size() % kAlign) % kAlign, '\0');
    SectionEntry entry;
    entry.id = p.id;
    entry.offset = file.size();
    entry.size = p.payload->size();
    entry.fnv = Fnv1a64(*p.payload);
    manifest_entries.push_back(entry);
    file += *p.payload;
  }
  const uint64_t manifest_offset = file.size();
  for (const SectionEntry& entry : manifest_entries) {
    AppendU32(&file, entry.id);
    AppendU32(&file, 0);
    AppendU64(&file, entry.offset);
    AppendU64(&file, entry.size);
    AppendU64(&file, entry.fnv);
  }
  AppendU64(&file, Fnv1a64Bytes(file.data() + manifest_offset,
                                file.size() - manifest_offset));
  PatchU64(&file, 16, file.size());
  PatchU64(&file, 24, manifest_offset);
  PatchU64(&file, kHeaderChecksumOffset,
           Fnv1a64Bytes(file.data(), kHeaderChecksumOffset));
  return Status::Ok();
}

Status SerializeModelStore(const EdgeModel& model, EmbedPrecision precision,
                           std::string* out) {
  const MmapModelStore* store = model.store();
  if (store == nullptr) return Status::FailedPrecondition("model not fitted");
  std::vector<std::string_view> names(store->num_nodes());
  nn::Matrix embeddings(store->num_nodes(), store->hidden());
  for (size_t n = 0; n < names.size(); ++n) {
    names[n] = store->NodeName(n);
    store->DequantizeRow(n, embeddings.row_data(n));
  }
  return EncodeModelStore(store->head(), names, embeddings, precision, out);
}

Status SaveModelStoreAtomic(const EdgeModel& model, EmbedPrecision precision,
                            const std::string& path) {
  std::string bytes;
  Status status = SerializeModelStore(model, precision, &bytes);
  if (!status.ok()) return status;
  return WriteFileAtomic(path, bytes, "io.checkpoint.write");
}

Result<std::unique_ptr<EdgeModel>> LoadInferenceAuto(const std::string& path,
                                                     StoreVerify verify) {
  Result<std::shared_ptr<const MmapModelStore>> store =
      MmapModelStore::Open(path, verify);
  if (!store.ok()) return store.status();
  return EdgeModel::LoadFromStore(std::move(store).value());
}

}  // namespace edge::core
