/// edge_perfbench — the benchmark's helper binary (see perfbench/run.py).
///
/// Subcommands, each one step of a benchmark run. Those that take --dir D
/// read the NYMA-sim corpus there as `edge_cli simulate --world nyma --out
/// D/tweets.tsv` writes it: D/tweets.tsv and D/tweets.tsv.gazetteer.tsv.
///
///   serve-prep --seed S --dir D --cold-lines N --e2v-epochs E --epochs M
///       Preprocesses the corpus, trains the two served checkpoints as binary
///       edge-model.v1 fp64 stores — D/model_a.edge (E entity2vec and M MDN
///       epochs) and D/model_b.edge (a shorter fit from another model seed,
///       so its answers differ) — and writes the request lines drawn from
///       S: D/cold.jsonl, N tweets naming 2-4 random known entities.
///   train      --seed S --dir D --e2v-epochs E --epochs M --setups K
///       The train_nyma workload: K timed corpus reads + Pipeline::Process,
///       one timed EdgeModel::Fit and its test-split quality; then the
///       trained model, saved as an fp64 store, served in process by a
///       default GeoService: 1,000 blocking predicts of test tweets with
///       distinct entity sets (order drawn from S), each checked against the
///       trained model's own answer, and timed reloads of the store.
///   expect     --gazetteer G --lines L --models A[,B] --out-prefix P
///       The answer checker's reference: each line's canonical in-process
///       answer under each model (P.<k>.jsonl), plus timed single calls of
///       each public serving step (decode, NER, predict, render) and of the
///       store open / GeoService reload paths.
///   drive      --port N --lines L --rate R --seconds S --conns C --out O
///              [--start K] [--reload-every-ms X --reload-first-ms F
///               --reload-paths a,b]
///       The open-loop generator: request i is due at t0 + i/R on connection
///       i mod C; each line's latency is timed from when it was due. Reload
///       j, naming path j mod 2, is due at t0 + F + j*X on connection 0.
///
/// Every subcommand prints one JSON object on stdout. --trace-out PATH turns
/// on the program's own spans and records the benchmark's spans around each
/// public call it makes, written as a Chrome trace at exit.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "edge/common/rng.h"
#include "edge/common/stopwatch.h"
#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/io.h"
#include "edge/data/pipeline.h"
#include "edge/eval/metrics.h"
#include "edge/obs/json_util.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"
#include "edge/serve/geo_service.h"
#include "edge/serve/json_codec.h"
#include "tool_args.h"

namespace {

using namespace edge;
using obs::internal::AppendJsonDouble;
using obs::internal::AppendJsonString;

constexpr char kTweetsFile[] = "/tweets.tsv";
constexpr char kGazetteerFile[] = "/tweets.tsv.gazetteer.tsv";
// train_nyma's serving probe: blocking predicts (about 2.1 ms each, the
// batcher's flush timer) and store reloads, enough of each to span seconds.
constexpr size_t kProbeTweets = 1000;
constexpr int kProbeReloads = 100;

int Fail(const std::string& what) {
  std::fprintf(stderr, "edge_perfbench: %s\n", what.c_str());
  return 1;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 100]) — perfbench/stats.py's
/// definition, so in-process and fleet latencies read alike.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Accumulates "key": value pairs into one flat JSON object.
class JsonOut {
 public:
  void Num(const char* key, double value) {
    Key(key);
    AppendJsonDouble(&body_, value);
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const char* key) {
    if (!body_.empty()) body_ += ",";
    AppendJsonString(&body_, key);
    body_ += ":";
  }
  std::string body_;
};

/// Sums recorded complete spans by name (seconds).
std::map<std::string, double> SpanSeconds() {
  std::map<std::string, double> sums;
  for (const obs::TraceEvent& event : obs::TraceSnapshot()) {
    if (event.kind != obs::TraceEvent::Kind::kComplete) continue;
    sums[event.name] += static_cast<double>(event.duration_us) * 1e-6;
  }
  return sums;
}

void MaybeStartTracing(const tools::Args& args) {
  if (args.Has("trace-out")) obs::StartTracing();
}

void MaybeWriteTrace(const tools::Args& args) {
  std::string path = args.Get("trace-out");
  if (!path.empty() && !obs::WriteTrace(path)) {
    std::fprintf(stderr, "edge_perfbench: cannot write %s\n", path.c_str());
  }
}

// --- set-up and Fit ---------------------------------------------------------

/// Reads the corpus and gazetteer a run wrote and preprocesses them: the
/// trainer's set-up.
Result<data::ProcessedDataset> LoadAndProcess(const std::string& dir,
                                              text::Gazetteer* gazetteer_out) {
  std::ifstream tweets_in(dir + kTweetsFile);
  if (!tweets_in) return Status::NotFound("no " + dir + kTweetsFile);
  Result<data::Dataset> dataset = data::ReadTweetsTsv(&tweets_in);
  if (!dataset.ok()) return dataset.status();
  Result<text::Gazetteer> gazetteer = tools::LoadGazetteer(dir + kGazetteerFile);
  if (!gazetteer.ok()) return gazetteer.status();
  if (gazetteer_out != nullptr) *gazetteer_out = gazetteer.value();
  EDGE_TRACE_SPAN("perfbench.pipeline_process");
  data::Pipeline pipeline(std::move(gazetteer).value());
  return pipeline.Process(dataset.value());
}

core::EdgeConfig TrainConfig(const tools::Args& args, uint64_t model_seed) {
  core::EdgeConfig config;
  config.entity2vec.epochs = static_cast<int>(args.GetInt("e2v-epochs", 10));
  config.epochs = static_cast<int>(args.GetInt("epochs", 20));
  config.seed = model_seed;
  return config;
}

/// Fit with its wall and process-CPU seconds.
struct FitTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

FitTiming TimedFit(core::EdgeModel* model, const data::ProcessedDataset& dataset) {
  EDGE_TRACE_SPAN("perfbench.fit");
  double cpu0 = ProcessCpuSeconds();
  Stopwatch watch;
  model->Fit(dataset);
  FitTiming timing;
  timing.wall_s = watch.ElapsedSeconds();
  timing.cpu_s = ProcessCpuSeconds() - cpu0;
  return timing;
}

/// The per-layer training figures: sums of the spans Fit emits (zero when
/// tracing is off) and the divergence-rollback counter.
void AddFitLayers(JsonOut* out) {
  std::map<std::string, double> spans = SpanSeconds();
  out->Num("embedding.entity2vec_s", spans["edge.core.fit.entity2vec"]);
  out->Num("graph.build_ms", spans["edge.core.fit.entity_graph"] * 1e3);
  out->Num("core.epochs_s", spans["edge.core.fit.epoch"]);
  out->Num("graph.gcn_forward_s", spans["edge.graph.gcn_forward"]);
  out->Num("nn.backward_s", spans["edge.nn.backward"]);
  out->Num("core.mdn_head_s", spans["edge.core.fit.mdn_head"]);
  out->Num("core.rollbacks", static_cast<double>(
                                 obs::Registry::Global().GetCounter("edge.core.rollbacks")->value()));
}

void AddQuality(core::EdgeModel* model, const data::ProcessedDataset& dataset,
                JsonOut* out) {
  EDGE_TRACE_SPAN("perfbench.evaluate");
  eval::MetricResults metrics = eval::EvaluateGeolocator(model, dataset);
  out->Num("median_km", metrics.median_km);
  out->Num("acc_3km", metrics.at_3km);
  out->Num("acc_5km", metrics.at_5km);
  out->Num("test_tweets", static_cast<double>(metrics.predicted));
}

// --- serve-prep --------------------------------------------------------------

std::string RequestBody(const std::string& text) {
  std::string line = "{\"text\":";
  AppendJsonString(&line, text);
  line += "}";
  return line;
}

/// Surface forms per canonical entity, from the gazetteer TSV.
std::map<std::string, std::vector<std::string>> SurfaceForms(const std::string& path) {
  std::map<std::string, std::vector<std::string>> forms;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t a = line.find('\t');
    size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    forms[line.substr(0, a)].push_back(line.substr(b + 1));
  }
  return forms;
}

/// Lowercase connective words that no gazetteer entry uses: they keep the
/// entity phrases apart without adding entities of their own.
const std::vector<std::string>& Fillers() {
  static const std::vector<std::string> words = {
      "heading to", "then", "near", "after", "with friends at", "and", "right by",
      "before", "lunch at", "meet me at", "still at", "walking past"};
  return words;
}

int RunServePrep(const tools::Args& args) {
  long seed = args.GetInt("seed", -1);
  long cold_lines = args.GetInt("cold-lines", 0);
  std::string dir = args.Get("dir");
  core::EdgeConfig config_a = TrainConfig(args, core::EdgeConfig().seed);
  if (!args.ok() || seed < 0 || cold_lines < 1 || dir.empty()) {
    return Fail("serve-prep: need --seed, --dir and --cold-lines");
  }
  MaybeStartTracing(args);

  Stopwatch pipeline_watch;
  Result<data::ProcessedDataset> processed = LoadAndProcess(dir, nullptr);
  if (!processed.ok()) return Fail(processed.status().ToString());
  double pipeline_s = pipeline_watch.ElapsedSeconds();
  const data::ProcessedDataset& dataset = processed.value();
  JsonOut out;
  out.Num("data.pipeline_s", pipeline_s);

  core::EdgeModel model_a(config_a);
  FitTiming fit = TimedFit(&model_a, dataset);
  out.Num("train_s", fit.wall_s);
  out.Num("train.cpu_ratio", fit.cpu_s / fit.wall_s);
  AddFitLayers(&out);
  AddQuality(&model_a, dataset, &out);
  // B only has to answer differently from A, so a shorter fit from another
  // model seed will do.
  core::EdgeConfig config_b = config_a;
  config_b.entity2vec.epochs = 1;
  config_b.epochs = 2;
  config_b.seed = config_a.seed + 1;
  core::EdgeModel model_b(config_b);
  model_b.Fit(dataset);
  for (const auto& [model, name] : {std::pair<const core::EdgeModel*, const char*>{
                                        &model_a, "/model_a.edge"},
                                    {&model_b, "/model_b.edge"}}) {
    Status saved =
        core::SaveModelStoreAtomic(*model, core::EmbedPrecision::kFp64, dir + name);
    if (!saved.ok()) return Fail("serve-prep: " + saved.ToString());
  }

  // Cold lines: 2-4 distinct random known entities per tweet, so nearly
  // every entity set is new to the replicas' caches.
  std::map<std::string, std::vector<std::string>> forms =
      SurfaceForms(dir + kGazetteerFile);
  std::vector<std::string> entities;
  for (const auto& [name, surface] : forms) {
    if (model_a.NodeIdOf(name) != graph::EntityGraph::kNotFound) entities.push_back(name);
  }
  if (entities.size() < 4) return Fail("serve-prep: too few known entities");
  Rng rng(static_cast<uint64_t>(seed) ^ 0x5eedc01dULL);
  std::ofstream cold(dir + "/cold.jsonl");
  for (long i = 0; i < cold_lines; ++i) {
    size_t k = 2 + rng.UniformInt(3);
    std::set<size_t> picked;
    while (picked.size() < k) picked.insert(rng.UniformInt(entities.size()));
    std::vector<size_t> order(picked.begin(), picked.end());
    rng.Shuffle(&order);
    std::string text = Fillers()[rng.UniformInt(Fillers().size())];
    for (size_t j = 0; j < order.size(); ++j) {
      const std::vector<std::string>& surface = forms[entities[order[j]]];
      if (j > 0) text += " " + Fillers()[rng.UniformInt(Fillers().size())];
      text += " " + surface[rng.UniformInt(surface.size())];
    }
    cold << RequestBody(text) << "\n";
  }
  cold.close();
  if (!cold) return Fail("serve-prep: cannot write request lines");
  MaybeWriteTrace(args);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- train (train_nyma) -------------------------------------------------------

/// Up to `limit` tweets whose sets of `model`-known entities are non-empty
/// and pairwise distinct, in an order drawn from `seed`. The service cache
/// keys on exactly that set, so none of them hits another's cache entry.
std::vector<const data::ProcessedTweet*> DistinctEntitySets(
    const std::vector<data::ProcessedTweet>& tweets, const core::EdgeModel& model,
    uint64_t seed, size_t limit) {
  std::vector<size_t> order(tweets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  rng.Shuffle(&order);
  std::set<std::vector<std::string>> seen;
  std::vector<const data::ProcessedTweet*> picked;
  for (size_t i : order) {
    if (picked.size() == limit) break;
    std::vector<std::string> names;
    for (const text::Entity& e : tweets[i].entities) {
      if (model.NodeIdOf(e.name) != graph::EntityGraph::kNotFound) names.push_back(e.name);
    }
    std::sort(names.begin(), names.end());
    if (!names.empty() && seen.insert(names).second) picked.push_back(&tweets[i]);
  }
  return picked;
}

/// One blocking GeoService::Predict per tweet: the latencies (ms), the
/// process CPU they took, and how many answers differ from `reference`'s own
/// prediction.
struct ServeProbe {
  std::vector<double> latency_ms;
  double cpu_s = 0.0;
  size_t mismatches = 0;
};

ServeProbe ServeTweets(serve::GeoService* service, const core::EdgeModel& reference,
                       const std::vector<const data::ProcessedTweet*>& tweets) {
  ServeProbe probe;
  std::vector<serve::ServeResponse> responses;
  responses.reserve(tweets.size());
  double cpu0 = ProcessCpuSeconds();
  for (const data::ProcessedTweet* tweet : tweets) {
    EDGE_TRACE_SPAN("perfbench.service_predict");
    int64_t t0 = NowNs();
    responses.push_back(service->Predict(tweet->text));
    probe.latency_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  probe.cpu_s = ProcessCpuSeconds() - cpu0;
  for (size_t i = 0; i < tweets.size(); ++i) {
    serve::ServeResponse expected;
    expected.prediction = reference.Predict(*tweets[i]);
    serve::ServeResponse got = responses[i];
    got.from_cache = false;  // Compared: point, mixture and attention.
    if (got.degraded || got.model == nullptr ||
        serve::ResponseToJsonLine(got, *got.model, "", false) !=
            serve::ResponseToJsonLine(expected, reference, "", false)) {
      ++probe.mismatches;
    }
  }
  return probe;
}

int RunTrain(const tools::Args& args) {
  std::string dir = args.Get("dir");
  long seed = args.GetInt("seed", -1);
  long setups = args.GetInt("setups", 3);
  core::EdgeConfig config = TrainConfig(args, core::EdgeConfig().seed);
  if (!args.ok() || dir.empty() || seed < 0 || setups < 1) {
    return Fail("train: need --seed and --dir");
  }
  bool traced = args.Has("trace-out");

  std::vector<double> setup_s;
  text::Gazetteer gazetteer;
  Result<data::ProcessedDataset> processed = Status::NotFound("no setup ran");
  for (long i = 0; i < setups; ++i) {
    Stopwatch watch;
    processed = LoadAndProcess(dir, &gazetteer);
    if (!processed.ok()) return Fail(processed.status().ToString());
    setup_s.push_back(watch.ElapsedSeconds());
  }
  const data::ProcessedDataset& dataset = processed.value();
  JsonOut out;
  out.Num("setup_s", Median(setup_s));
  out.Num("data.pipeline_s", Median(setup_s));

  MaybeStartTracing(args);
  core::EdgeModel model(config);
  FitTiming fit = TimedFit(&model, dataset);
  out.Num("train_s", fit.wall_s);
  out.Num("train.cpu_ratio", fit.cpu_s / fit.wall_s);
  AddFitLayers(&out);
  AddQuality(&model, dataset, &out);
  obs::StopTracing();

  // Handing the model over: the fp64 store it saves, served in process by a
  // GeoService at its default options (as edge_serve would serve it).
  std::string store_path = dir + "/trained.edge";
  Status saved = core::SaveModelStoreAtomic(model, core::EmbedPrecision::kFp64, store_path);
  if (!saved.ok()) return Fail("train: " + saved.ToString());
  auto loaded = core::LoadInferenceAuto(store_path, core::StoreVerify::kFull);
  if (!loaded.ok()) return Fail("train: " + loaded.status().ToString());
  auto service = serve::GeoService::Create(std::move(loaded).value(), gazetteer);
  if (!service.ok()) return Fail("train: " + service.status().ToString());
  std::vector<const data::ProcessedTweet*> tweets =
      DistinctEntitySets(dataset.test, model, static_cast<uint64_t>(seed), kProbeTweets);
  ServeProbe probe = ServeTweets(service.value().get(), model, tweets);
  out.Num("p50_ms", Percentile(probe.latency_ms, 50.0));
  out.Num("p90_ms", Percentile(probe.latency_ms, 90.0));
  out.Num("cpu_us_per_req",
          probe.cpu_s * 1e6 / static_cast<double>(std::max<size_t>(1, tweets.size())));
  out.Num("samples", static_cast<double>(tweets.size()));

  // Each reload also clears the cache for the traced pass below.
  std::vector<double> reload_ms;
  for (int rep = 0; rep < kProbeReloads; ++rep) {
    int64_t t0 = NowNs();
    Status status = service.value()->ReloadFromFile(store_path);
    if (!status.ok()) return Fail("train: " + status.ToString());
    reload_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  out.Num("reload_ms", Median(reload_ms));
  size_t mismatches = probe.mismatches;
  if (traced) {
    obs::StartTracing();
    ServeProbe traced_probe = ServeTweets(service.value().get(), model, tweets);
    out.Num("traced_p50_ms", Percentile(traced_probe.latency_ms, 50.0));
    mismatches += traced_probe.mismatches;
  }
  out.Num("attempted", static_cast<double>(tweets.size()));
  out.Num("failed", static_cast<double>(mismatches));
  out.Num("rss_mib", PeakRssMib());
  MaybeWriteTrace(args);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- expect ------------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> parts;
  std::stringstream stream(s);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

int RunExpect(const tools::Args& args) {
  std::string lines_path = args.Get("lines");
  std::string prefix = args.Get("out-prefix");
  std::vector<std::string> model_paths = SplitComma(args.Get("models"));
  Result<text::Gazetteer> gazetteer = tools::LoadGazetteer(args.Get("gazetteer"));
  if (!args.ok() || lines_path.empty() || prefix.empty() || model_paths.empty()) {
    return Fail("expect: need --lines, --models and --out-prefix");
  }
  if (!gazetteer.ok()) return Fail("expect: " + gazetteer.status().ToString());
  MaybeStartTracing(args);
  std::vector<std::string> lines = ReadLines(lines_path);
  text::TweetNer ner(gazetteer.value());

  std::vector<std::unique_ptr<core::EdgeModel>> models;
  for (const std::string& path : model_paths) {
    auto model = core::LoadInferenceAuto(path, core::StoreVerify::kFull);
    if (!model.ok()) return Fail("expect: " + model.status().ToString());
    models.push_back(std::move(model).value());
  }

  std::vector<double> decode_us, ner_us, predict_us, render_us;
  for (size_t k = 0; k < models.size(); ++k) {
    std::ofstream out(prefix + "." + std::to_string(k) + ".jsonl");
    for (const std::string& line : lines) {
      EDGE_TRACE_SPAN("perfbench.expect_line");
      serve::ServeRequest request;
      std::string error;
      int64_t t0 = NowNs();
      bool parsed = serve::ParseRequestLine(line, &request, &error);
      int64_t t1 = NowNs();
      if (!parsed) return Fail("expect: bad request line: " + error);
      data::ProcessedTweet tweet;
      tweet.entities = ner.Extract(request.text);
      int64_t t2 = NowNs();
      serve::ServeResponse response;
      response.prediction = models[k]->Predict(tweet);
      int64_t t3 = NowNs();
      std::string rendered =
          serve::ResponseToJsonLine(response, *models[k], "", /*include_latency=*/false);
      int64_t t4 = NowNs();
      out << rendered << "\n";
      decode_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      ner_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      predict_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
      render_us.push_back(static_cast<double>(t4 - t3) * 1e-3);
    }
    out.close();
    if (!out) return Fail("expect: cannot write answers");
  }

  JsonOut out;
  out.Num("serve.decode_us", Median(decode_us));
  out.Num("text.ner_us", Median(ner_us));
  out.Num("core.predict_us", Median(predict_us));
  out.Num("serve.render_us", Median(render_us));

  // The reload path's two halves, in process: open (mmap + full verify) and
  // wrap the store, then the service's whole reload.
  std::vector<double> open_ms;
  for (int rep = 0; rep < 5; ++rep) {
    EDGE_TRACE_SPAN("perfbench.store_open");
    int64_t t0 = NowNs();
    auto store = core::MmapModelStore::Open(model_paths[0], core::StoreVerify::kFull);
    if (!store.ok()) return Fail("expect: " + store.status().ToString());
    auto model = core::EdgeModel::LoadFromStore(std::move(store).value());
    if (!model.ok()) return Fail("expect: " + model.status().ToString());
    open_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  out.Num("core.store_open_ms", Median(open_ms));
  auto first = core::LoadInferenceAuto(model_paths[0], core::StoreVerify::kFull);
  if (!first.ok()) return Fail("expect: " + first.status().ToString());
  auto service = serve::GeoService::Create(std::move(first).value(), gazetteer.value());
  if (!service.ok()) return Fail("expect: " + service.status().ToString());
  std::vector<double> reload_ms;
  for (int rep = 0; rep < 6; ++rep) {
    EDGE_TRACE_SPAN("perfbench.service_reload");
    const std::string& path = model_paths[(rep + 1) % model_paths.size()];
    int64_t t0 = NowNs();
    Status status = service.value()->ReloadFromFile(path);
    if (!status.ok()) return Fail("expect: " + status.ToString());
    reload_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  out.Num("serve.reload_inproc_ms", Median(reload_ms));
  MaybeWriteTrace(args);
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// --- drive -------------------------------------------------------------------

/// One scheduled request of the open-loop stream.
struct Slot {
  int64_t due_ns = 0;   ///< Relative to the stream start.
  int64_t sent_ns = -1;
  int64_t recv_ns = -1;
  long line = -1;       ///< Request line index; -1 for a reload.
  std::string payload;
  std::string answer;
};

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Sends this connection's slots on schedule and reads their answers, which
/// arrive in send order. Returns after every answer or at `deadline_ns`.
void ConnectionLoop(int fd, int64_t start_ns, int64_t deadline_ns,
                    std::vector<Slot*> slots) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  size_t next_send = 0;
  size_t next_recv = 0;
  std::string buffer;
  char chunk[1 << 16];
  while (next_recv < slots.size()) {
    int64_t now = NowNs();
    if (now >= deadline_ns) break;
    if (next_send < slots.size() && now >= start_ns + slots[next_send]->due_ns) {
      Slot* slot = slots[next_send++];
      slot->sent_ns = now - start_ns;
      if (!SendAll(fd, slot->payload)) break;
      continue;
    }
    int64_t wait_ns = next_send < slots.size()
                          ? start_ns + slots[next_send]->due_ns - now
                          : deadline_ns - now;
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    pollfd pfd{fd, POLLIN, 0};
    int ready = ppoll(&pfd, 1, &timeout, nullptr);
    if (ready <= 0) continue;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    int64_t recv_ns = NowNs() - start_ns;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t begin = 0;
    for (size_t nl = buffer.find('\n'); nl != std::string::npos;
         nl = buffer.find('\n', begin)) {
      if (next_recv < next_send) {
        slots[next_recv]->recv_ns = recv_ns;
        slots[next_recv]->answer = buffer.substr(begin, nl - begin);
        ++next_recv;
      }
      begin = nl + 1;
    }
    buffer.erase(0, begin);
  }
}

int RunDrive(const tools::Args& args) {
  long port = args.GetInt("port", 0);
  double rate = args.GetDouble("rate", 4000.0);
  double seconds = args.GetDouble("seconds", 1.0);
  long conns = args.GetInt("conns", 2);
  long start = args.GetInt("start", 0);
  double reload_every_ms = args.GetDouble("reload-every-ms", 0.0);
  double reload_first_ms = args.GetDouble("reload-first-ms", reload_every_ms);
  std::vector<std::string> reload_paths = SplitComma(args.Get("reload-paths"));
  std::string out_path = args.Get("out");
  std::vector<std::string> lines = ReadLines(args.Get("lines"));
  long hw = static_cast<long>(std::max(1u, std::thread::hardware_concurrency()));
  if (!args.ok() || port <= 0 || rate <= 0.0 || seconds <= 0.0 || conns < 1 ||
      conns > hw || lines.empty() || out_path.empty() ||
      (reload_every_ms > 0.0 && (reload_paths.empty() || reload_first_ms < 0.0))) {
    return Fail("drive: bad flags");
  }
  // The default 50 us timer slack would make every due time ~60 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  size_t count = static_cast<size_t>(rate * seconds);
  std::vector<Slot> slots(count);
  std::vector<std::vector<Slot*>> per_conn(static_cast<size_t>(conns));
  for (size_t i = 0; i < count; ++i) {
    Slot& slot = slots[i];
    slot.due_ns = static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    slot.line = static_cast<long>((static_cast<size_t>(start) + i) % lines.size());
    const std::string& body = lines[static_cast<size_t>(slot.line)];
    slot.payload = "{\"id\":\"" + std::to_string(i) + "\"," + body.substr(1) + "\n";
    per_conn[i % per_conn.size()].push_back(&slot);
  }
  // Reloads ride connection 0 in due-time order with its predicts.
  std::vector<Slot> reloads;
  if (reload_every_ms > 0.0) {
    for (int64_t due = static_cast<int64_t>(reload_first_ms * 1e6), j = 0;
         due < static_cast<int64_t>(seconds * 1e9);
         due += static_cast<int64_t>(reload_every_ms * 1e6), ++j) {
      Slot slot;
      slot.due_ns = due;
      std::string line = "{\"id\":\"reload" + std::to_string(j) + "\",\"reload\":";
      AppendJsonString(&line, reload_paths[static_cast<size_t>(j) % reload_paths.size()]);
      slot.payload = line + "}\n";
      reloads.push_back(std::move(slot));
    }
    for (Slot& slot : reloads) per_conn[0].push_back(&slot);
    std::stable_sort(per_conn[0].begin(), per_conn[0].end(),
                     [](const Slot* a, const Slot* b) { return a->due_ns < b->due_ns; });
  }

  std::vector<int> fds;
  for (long c = 0; c < conns; ++c) {
    int fd = ConnectLoopback(static_cast<int>(port));
    if (fd < 0) return Fail("drive: cannot connect to port " + std::to_string(port));
    fds.push_back(fd);
  }
  // Start a little in the future so every connection thread is parked.
  int64_t start_ns = NowNs() + 5000000;
  int64_t deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9) + 30000000000LL;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < fds.size(); ++c) {
    threads.emplace_back(ConnectionLoop, fds[c], start_ns, deadline_ns, per_conn[c]);
  }
  for (std::thread& t : threads) t.join();
  for (int fd : fds) ::close(fd);

  // kind \t line \t due \t sent \t recv (ns from stream start) \t answer
  std::ofstream out(out_path);
  auto write = [&out](const Slot& slot, char kind) {
    out << kind << '\t' << slot.line << '\t' << slot.due_ns << '\t' << slot.sent_ns
        << '\t' << slot.recv_ns << '\t' << slot.answer << '\n';
  };
  for (const Slot& slot : slots) write(slot, 'p');
  for (const Slot& slot : reloads) write(slot, 'r');
  out.close();
  if (!out) return Fail("drive: cannot write " + out_path);
  JsonOut summary;
  summary.Num("requests", static_cast<double>(count));
  summary.Num("reloads", static_cast<double>(reloads.size()));
  std::printf("%s\n", summary.Done().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: edge_perfbench serve-prep|train|expect|drive [--flag value]...\n"
               "(see the file comment of perfbench/edge_perfbench.cc)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  tools::Args args(argc, argv, 2);
  if (!args.ok()) return Usage();
  std::string command = argv[1];
  if (command == "serve-prep") return RunServePrep(args);
  if (command == "train") return RunTrain(args);
  if (command == "expect") return RunExpect(args);
  if (command == "drive") return RunDrive(args);
  return Usage();
}
