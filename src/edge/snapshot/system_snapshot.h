#ifndef EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_
#define EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_

#include <memory>
#include <string>

#include "edge/common/rng.h"
#include "edge/common/status.h"
#include "edge/core/edge_model.h"
#include "edge/core/train_checkpoint.h"
#include "edge/data/pipeline.h"
#include "edge/data/world.h"
#include "edge/graph/entity_graph.h"
#include "edge/serve/geo_service.h"
#include "edge/text/vocabulary.h"

/// \file
/// Versioned whole-system snapshot (DESIGN.md §13): everything the pipeline
/// needs to reproduce an end-to-end run bit-for-bit — the generative world
/// and its RNG position, the entity vocabulary and co-occurrence graph the
/// training split induced, the trained model's fp64 edge-model.v1 store, the
/// optional in-flight training state, and the serving configuration. A
/// snapshot directory is the unit the scenario harness replays against
/// (snapshot/scenario.h), and the regression net the networked-sharding and
/// streaming-world refactors are verified under.
///
/// On-disk layout (`Save(dir)`, manifest version `EDGE-SNAPSHOT v2`): one
/// file per section plus a MANIFEST. Each section is written atomically; the
/// MANIFEST records every section's byte count and FNV-1a checksum and is
/// itself terminated by an `END <fnv1a-hex>` line over its own body.
/// `Load(dir)` verifies the manifest checksum, then every section's size +
/// checksum, then parses each section as untrusted input: truncations, bit
/// flips, absurd sizes, out-of-range indices and non-finite values all come
/// back as a Status — never an abort, never a partially constructed
/// snapshot. A v1 manifest (whose model section was the retired text
/// checkpoint) is rejected with a Status naming its version. The serving
/// configuration is written as `EDGE-SERVE-OPTIONS v3`; the parser also reads
/// v2, dropping its retired predict_threads line.

namespace edge::snapshot {

/// The full captured state. The model travels as its serialized fp64
/// edge-model.v1 bytes (validated on load; SnapshotModel turns them into a
/// servable model); everything else is held as parsed values.
struct SystemSnapshot {
  /// The generative world: enough to rebuild the TweetGenerator, its
  /// gazetteer, and therefore the NER — all pure functions of this config.
  data::WorldConfig world;

  /// Scenario/generator stream position; a replay that should continue
  /// where the capture left off restores this instead of reseeding.
  Rng::State rng;

  /// Training-split entity vocabulary (token -> occurrence count).
  text::Vocabulary vocabulary;

  /// The co-occurrence entity graph with its real edge weights. The model
  /// store only carries node names (inference needs no edges), so this
  /// section is what preserves graph structure across a snapshot/restore
  /// cycle.
  graph::EntityGraph graph;

  /// The model section: an edge-model.v1 store at fp64 (core/model_store.h),
  /// exact, so replay answers bitwise what the captured model answered. Load
  /// validates it under the full store gates and checks its vocabulary
  /// against the graph section, node for node.
  std::string model_store;

  /// Serving configuration the scenario harness replays under.
  serve::GeoServiceOptions serve_options;

  /// Optional in-flight training state (EDGE-TRAINSTATE v1), for snapshots
  /// taken mid-run.
  bool has_train_state = false;
  core::TrainState train_state;
};

/// Captures a snapshot from live components: serializes `model` (which must
/// be fitted) as an fp64 store, takes its co-occurrence graph, and builds the entity
/// vocabulary from the dataset's training split. The snapshot RNG starts at
/// the world seed's stream head.
Result<SystemSnapshot> CaptureSystemSnapshot(const core::EdgeModel& model,
                                             const data::WorldConfig& world,
                                             const data::ProcessedDataset& dataset,
                                             const serve::GeoServiceOptions& options);

/// Writes every section plus the MANIFEST into `dir` (created if missing).
/// Each file is written atomically (fault point io.snapshot.write).
Status SaveSystemSnapshot(const SystemSnapshot& snapshot, const std::string& dir);

/// Loads and fully validates a snapshot directory (fault point
/// io.snapshot.read). Any corruption — in the manifest, a section's bytes,
/// or a section's content — is a Status error.
Result<SystemSnapshot> LoadSystemSnapshot(const std::string& dir);

/// A servable model over `snapshot.model_store`, verified at
/// core::StoreVerify::kFull. Scenario replay serves and reloads these.
Result<std::unique_ptr<core::EdgeModel>> SnapshotModel(const SystemSnapshot& snapshot);

/// Section (de)serializers, exposed for targeted corruption tests. Every
/// parser is total over arbitrary bytes: malformed input is a Status.
std::string SerializeWorldConfig(const data::WorldConfig& world);
Result<data::WorldConfig> ParseWorldConfig(const std::string& content);
std::string SerializeVocabulary(const text::Vocabulary& vocabulary);
Result<text::Vocabulary> ParseVocabulary(const std::string& content);
std::string SerializeEntityGraph(const graph::EntityGraph& graph);
Result<graph::EntityGraph> ParseEntityGraph(const std::string& content);
std::string SerializeServeOptions(const serve::GeoServiceOptions& options);
Result<serve::GeoServiceOptions> ParseServeOptions(const std::string& content);

}  // namespace edge::snapshot

#endif  // EDGE_SNAPSHOT_SYSTEM_SNAPSHOT_H_
