/// edge_serve — line-delimited JSON inference server, over stdin/stdout or a
/// TCP listen socket.
///
/// Reads one request per line (raw tweet text, or a flat JSON object with
/// "text" / optional "id" / optional "deadline_ms"), answers one JSON line
/// per request in input order: the predicted mixture (per-component weight,
/// lat/lon center, km sigmas, rho, 95% confidence ellipse), the Eq. 14 mode
/// point, per-entity attention and serving metadata. See README "Serving".
///
///   edge_cli train --tweets t.tsv --gazetteer g.tsv --model m.edge
///   echo "lunch at katz_deli" | edge_serve --model m.edge --gazetteer g.tsv
///   edge_serve --model m.edge --gazetteer g.tsv --listen 7070   # TCP mode
///
/// Flags:
///   --model m.edge          checkpoint, text EDGE-INFERENCE or binary
///                           edge-model.v1, sniffed by magic (required)
///   --gazetteer g.tsv       NER dictionary (required)
///   --listen PORT           serve LDJSON over TCP instead of stdin/stdout;
///                           PORT 0 binds an ephemeral port. The bound
///                           address is announced on stderr as
///                           "listening on HOST:PORT"
///   --host H                listen address             (default 127.0.0.1)
///   --canonical true|false  omit wall-clock fields (latency_ms, telemetry)
///                           from responses so output is a deterministic
///                           function of the request stream (default false)
///   --max-line-bytes N      reject request lines longer than this (both
///                           modes; default 1 MiB)
///   --store-verify full|fast  binary-store validation depth (default full;
///                           fast makes binary hot reload O(1) map-and-swap)
///   --max-batch N           most requests per worker batch    (default 16)
///   --workers N             batch worker threads              (default 1)
///   --queue-capacity N      admission queue bound             (default 1024)
///   --cache-capacity N      LRU response cache entries, 0=off (default 4096)
///   --deadline-ms D         default per-request deadline, 0=none (default 0)
///   --predict-threads N     model threads per batch, 0=hw     (default 1)
///   --telemetry B           request ids/waterfalls/window stats (default true)
///   --slo-p99-ms D          latency SLO threshold              (default 100)
///   --slo-availability F    availability SLO target            (default 0.999)
///   --metrics-export p.json periodic atomic metrics+health snapshot
///   --metrics-export-every S  export period seconds (default 10; the
///                             EDGE_METRICS_EXPORT_EVERY env var wins)
/// plus the shared observability flags (--log-level, --metrics-out,
/// --trace-out). Any other flag exits 2 with usage: a typo or a removed
/// option is never silently ignored.
///
/// Responses stream in input order per stream (the stdin pipe, or each TCP
/// connection); up to 4 x max-batch requests per stream are kept in flight,
/// and a stream at that cap is not read until answers drain. Serving is
/// work conserving: a free worker takes whatever is queued at once (there is
/// no batch timer), and a worker that finishes a batch wakes the event loop,
/// which parks in poll() and writes the answers the moment they exist. In
/// pipe mode that means a co-process client can write one line and read its
/// answer without closing stdin.
///
/// Control verbs (DESIGN.md §14), answered in input order like any request:
///   - {"stats": true}: sliding-window stats + SLO burn rates.
///   - {"health": true}: health snapshot (generation, queue, workers, fault
///     state).
///   - {"reload": "new.edge"}: hot-reload from an arbitrary checkpoint;
///     answers {"reload":"ok",...} or {"reload":"failed",...}.
/// Malformed lines (bad JSON, an object with neither "text" nor a control
/// verb, or a line over --max-line-bytes) answer a structured
/// {"error": "...", "line": N} line — they are never silently dropped.
///
/// Fault tolerance (DESIGN.md §12):
///   - SIGINT / SIGTERM: stop reading/accepting, drain every in-flight
///     request (each still gets its response line), flush, exit 0.
///   - SIGHUP: hot-reload the model from the --model path; serving continues
///     on the old model if the new checkpoint is rejected.

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "edge/core/model_store.h"
#include "edge/net/line_server.h"
#include "edge/serve/geo_service.h"
#include "edge/serve/json_codec.h"
#include "edge/serve/session.h"
#include "tool_args.h"

namespace {

using namespace edge;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;
/// The serving loop's waker while it serves; a lock-free atomic, since a
/// handler may run on any thread.
std::atomic<const net::Waker*> g_waker{nullptr};

/// A signal that lands between the loop's flag check and its poll() would
/// otherwise sleep until the next event: waking the loop closes that window.
void WakeLoop() {
  int saved_errno = errno;
  if (const net::Waker* waker = g_waker.load()) waker->Wake();
  errno = saved_errno;
}

void HandleStop(int) {
  g_stop = 1;
  WakeLoop();
}
void HandleReload(int) {
  g_reload = 1;
  WakeLoop();
}

/// Installs handlers WITHOUT SA_RESTART, so a blocked read or write returns
/// EINTR and the flags are checked promptly.
void InstallSignalHandlers() {
#ifndef _WIN32
  struct sigaction stop_action = {};
  stop_action.sa_handler = HandleStop;
  sigemptyset(&stop_action.sa_mask);
  stop_action.sa_flags = 0;
  sigaction(SIGINT, &stop_action, nullptr);
  sigaction(SIGTERM, &stop_action, nullptr);
  struct sigaction reload_action = {};
  reload_action.sa_handler = HandleReload;
  sigemptyset(&reload_action.sa_mask);
  reload_action.sa_flags = 0;
  sigaction(SIGHUP, &reload_action, nullptr);
#else
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: edge_serve --model m.edge --gazetteer g.tsv\n"
               "  [--listen PORT] [--host H] [--canonical true|false]\n"
               "  [--max-line-bytes N]\n"
               "  [--max-batch N] [--workers N]\n"
               "  [--queue-capacity N] [--cache-capacity N] [--deadline-ms D]\n"
               "  [--predict-threads N] [--telemetry true|false]\n"
               "  [--store-verify full|fast]\n"
               "  [--slo-p99-ms D] [--slo-availability F]\n"
               "  [--metrics-export m.json] [--metrics-export-every S]\n"
               "  [--log-level L] [--metrics-out m.json] [--trace-out t.json]\n"
               "reads one request per line (raw text or\n"
               "{\"text\":...,\"id\":...,\"deadline_ms\":...}) from stdin — or,\n"
               "with --listen, from many concurrent TCP connections — and\n"
               "writes one JSON response line per request in order;\n"
               "{\"reload\":\"new.edge\"} hot-swaps the model; {\"stats\":true}\n"
               "and {\"health\":true} answer window stats / health; SIGHUP\n"
               "reloads --model; SIGINT/SIGTERM drain in-flight and exit 0\n");
  return 2;
}

/// Checks the SIGHUP flag and reloads --model in place (both serving modes).
void MaybeSignalReload(serve::GeoService* geo, const std::string& model_path) {
  if (!g_reload) return;
  g_reload = 0;
  Status status = geo->ReloadFromFile(model_path);
  std::fprintf(stderr, "SIGHUP reload of %s: %s\n", model_path.c_str(),
               status.ok() ? "ok" : status.ToString().c_str());
}

/// Pipe mode: stdin lines in, stdout lines out. stdin is framed like a
/// socket (the same LineFramer and --max-line-bytes) and polled beside the
/// waker, so each answer is written and flushed as soon as it is ready.
int ServeStdio(serve::GeoService* geo, const std::string& model_path,
               const serve::ServeSessionOptions& session_options,
               const net::Waker& waker, size_t max_line_bytes) {
  serve::ServeSession session(geo, session_options);
  net::LineFramer framer(max_line_bytes);
  std::vector<std::string> ready;
  auto emit = [&ready] {
    for (const std::string& out : ready) {
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fputc('\n', stdout);
    }
    ready.clear();
    std::fflush(stdout);
  };

  bool eof = false;
  while (!g_stop) {
    MaybeSignalReload(geo, model_path);
    // Feed framed lines while the pipelining window has room and write what
    // is ready (cache hits and control verbs answer at once, freeing room).
    for (;;) {
      std::string line;
      while (!session.AtCapacity()) {
        net::LineFramer::Event event = framer.Next(&line);
        if (event == net::LineFramer::Event::kNeedMore) break;
        if (event == net::LineFramer::Event::kLine) {
          session.HandleLine(line);
        } else {
          session.HandleOversized();
        }
      }
      session.DrainReady(&ready);
      if (ready.empty()) break;
      emit();
    }
    if (eof && session.in_flight() == 0) break;

    // Park until a batch completes, a signal arrives or — while the window
    // has room — stdin has bytes. A negative fd drops stdin from the set.
    pollfd fds[2] = {
        {waker.fd(), POLLIN, 0},
        {eof || session.AtCapacity() ? -1 : STDIN_FILENO, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) continue;  // EINTR: re-check the flags.
    if (fds[0].revents != 0) waker.Drain();
    if (fds[1].revents == 0) continue;
    char buf[64 << 10];
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n > 0) {
      framer.Append(buf, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
      eof = true;
      // As with getline, an unterminated last line is still a request.
      if (framer.buffered() > 0) framer.Append("\n", 1);
    }
  }
  // Graceful drain: every accepted request still gets its response line,
  // whether we stopped on EOF or on SIGINT/SIGTERM.
  session.DrainAll(&ready);
  emit();
  return session.bad_lines() == 0 ? 0 : 1;
}

/// TCP mode: a poll event loop fans N concurrent connections into the one
/// GeoService; each connection is an independent ordered LDJSON stream. The
/// loop parks in poll() until a socket is ready or server_options.waker
/// announces a finished batch.
int ServeTcp(serve::GeoService* geo, const std::string& model_path,
             const serve::ServeSessionOptions& session_options,
             const net::LineServer::Options& server_options) {
  std::map<net::LineServer::ConnId, serve::ServeSession> sessions;
  std::set<net::LineServer::ConnId> draining;  // EOF seen; finish, then close.
  std::unique_ptr<net::LineServer> server;

  net::LineServer::Callbacks callbacks;
  callbacks.on_open = [&](net::LineServer::ConnId id) {
    sessions.emplace(id, serve::ServeSession(geo, session_options));
  };
  callbacks.on_line = [&](net::LineServer::ConnId id, std::string&& line) {
    auto it = sessions.find(id);
    if (it == sessions.end()) return;
    it->second.HandleLine(line);
    // Admission backpressure: a client with a full pipelining window stops
    // being read until responses drain (TCP pushes back from here).
    if (it->second.AtCapacity()) server->PauseReading(id);
  };
  callbacks.on_oversized = [&](net::LineServer::ConnId id) {
    auto it = sessions.find(id);
    if (it != sessions.end()) it->second.HandleOversized();
  };
  callbacks.on_eof = [&](net::LineServer::ConnId id) { draining.insert(id); };
  callbacks.on_close = [&](net::LineServer::ConnId id) {
    sessions.erase(id);
    draining.erase(id);
  };

  auto listening = net::LineServer::Listen(server_options, std::move(callbacks));
  if (!listening.ok()) {
    std::fprintf(stderr, "cannot listen on %s:%u: %s\n",
                 server_options.host.c_str(), server_options.port,
                 listening.status().ToString().c_str());
    return 1;
  }
  server = std::move(listening).value();
  // Machine-parseable announcement (the router/smoke harnesses scrape it).
  std::fprintf(stderr, "edge_serve: listening on %s:%u\n",
               server_options.host.c_str(), server->port());
  std::fflush(stderr);

  std::vector<std::string> ready;
  while (!g_stop) {
    MaybeSignalReload(geo, model_path);
    server->RunOnce(/*timeout_ms=*/-1);

    // Send() and ResumeReading() can synchronously tear a connection down
    // (write error -> on_close -> sessions.erase), so iterate a snapshot of
    // ids and re-find the session after every call into the server.
    std::vector<net::LineServer::ConnId> ids;
    ids.reserve(sessions.size());
    for (const auto& [id, session] : sessions) ids.push_back(id);
    std::vector<net::LineServer::ConnId> finished;
    for (net::LineServer::ConnId id : ids) {
      auto it = sessions.find(id);
      if (it == sessions.end()) continue;
      ready.clear();
      it->second.DrainReady(&ready);
      for (const std::string& out : ready) {
        if (!server->Send(id, out)) break;  // Connection died mid-flush.
      }
      it = sessions.find(id);
      if (it == sessions.end()) continue;
      if (!it->second.AtCapacity()) server->ResumeReading(id);
      it = sessions.find(id);
      if (it == sessions.end()) continue;
      if (draining.count(id) > 0 && it->second.in_flight() == 0) {
        finished.push_back(id);
      }
    }
    // Close() fires on_close synchronously when nothing is left to flush,
    // which erases from `sessions` — so close outside the iteration.
    for (net::LineServer::ConnId id : finished) server->Close(id);
  }

  // Graceful shutdown: no new connections or reads, but every accepted
  // request still gets its response line, then writes flush.
  server->StopAccepting();
  std::vector<net::LineServer::ConnId> drain_ids;
  drain_ids.reserve(sessions.size());
  for (const auto& [id, session] : sessions) drain_ids.push_back(id);
  for (net::LineServer::ConnId id : drain_ids) {
    auto it = sessions.find(id);
    if (it == sessions.end()) continue;  // A failed Send erased it.
    ready.clear();
    it->second.DrainAll(&ready);
    for (const std::string& out : ready) {
      if (!server->Send(id, out)) break;
    }
  }
  for (int spins = 0; spins < 1000 && !server->idle(); ++spins) {
    server->RunOnce(10);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, 1);
  if (!args.ok() || args.Has("help")) return Usage();
  if (!tools::SetupObservability(args)) return 2;

  std::string model_path = args.Get("model");
  std::string gaz_path = args.Get("gazetteer");
  if (model_path.empty() || gaz_path.empty()) return Usage();

  Result<text::Gazetteer> gazetteer = tools::LoadGazetteer(gaz_path);
  if (!gazetteer.ok()) {
    std::fprintf(stderr, "bad gazetteer: %s\n", gazetteer.status().ToString().c_str());
    return 1;
  }

  serve::GeoServiceOptions options;
  options.max_batch = static_cast<size_t>(
      args.GetInt("max-batch", static_cast<long>(options.max_batch)));
  options.num_workers = static_cast<size_t>(
      args.GetInt("workers", static_cast<long>(options.num_workers)));
  options.queue_capacity = static_cast<size_t>(
      args.GetInt("queue-capacity", static_cast<long>(options.queue_capacity)));
  options.cache_capacity = static_cast<size_t>(
      args.GetInt("cache-capacity", static_cast<long>(options.cache_capacity)));
  options.default_deadline_ms = args.GetDouble("deadline-ms", 0.0);
  options.predict_threads =
      static_cast<int>(args.GetInt("predict-threads", options.predict_threads));
  std::string telemetry_flag = args.Get("telemetry", "true");
  if (telemetry_flag != "true" && telemetry_flag != "false") {
    std::fprintf(stderr, "--telemetry: '%s' is not true or false\n",
                 telemetry_flag.c_str());
    return Usage();
  }
  options.telemetry = telemetry_flag == "true";
  options.slo_p99_ms = args.GetDouble("slo-p99-ms", options.slo_p99_ms);
  options.slo_availability =
      args.GetDouble("slo-availability", options.slo_availability);
  std::string verify_flag = args.Get("store-verify", "full");
  if (verify_flag == "full") {
    options.model_store_verify = core::StoreVerify::kFull;
  } else if (verify_flag == "fast") {
    options.model_store_verify = core::StoreVerify::kFast;
  } else {
    std::fprintf(stderr, "--store-verify: '%s' is not full or fast\n",
                 verify_flag.c_str());
    return Usage();
  }
  std::string canonical_flag = args.Get("canonical", "false");
  if (canonical_flag != "true" && canonical_flag != "false") {
    std::fprintf(stderr, "--canonical: '%s' is not true or false\n",
                 canonical_flag.c_str());
    return Usage();
  }
  long listen_port = args.GetInt("listen", -1);
  if (args.Has("listen") && (listen_port < 0 || listen_port > 65535)) {
    std::fprintf(stderr, "--listen: port out of range\n");
    return Usage();
  }
  std::string host = args.Get("host", "127.0.0.1");
  long max_line_bytes = args.GetInt(
      "max-line-bytes", static_cast<long>(net::LineFramer::kDefaultMaxLineBytes));
  if (max_line_bytes < 64) {
    std::fprintf(stderr, "--max-line-bytes: must be >= 64\n");
    return Usage();
  }
  // Strict flag parsing: GetInt/GetDouble flag malformed values on the Args.
  if (!args.ok()) return Usage();

  // Workers signal the serving loop through this when a batch completes.
  // Declared before the service so it outlives every worker; the loop's
  // LineServer only borrows it.
  Result<std::unique_ptr<net::Waker>> waker = net::Waker::Create();
  if (!waker.ok()) {
    std::fprintf(stderr, "cannot create waker: %s\n",
                 waker.status().ToString().c_str());
    return 1;
  }
  const net::Waker* wake = waker.value().get();

  // The initial load goes through the same sniffing path as hot reload, so
  // --model accepts either checkpoint format.
  auto model = core::LoadInferenceAuto(model_path, options.model_store_verify);
  if (!model.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", model_path.c_str(),
                 model.status().ToString().c_str());
    return 1;
  }
  auto service = serve::GeoService::Create(std::move(model).value(),
                                           std::move(gazetteer).value(), options,
                                           [wake] { wake->Wake(); });
  if (!service.ok()) {
    std::fprintf(stderr, "cannot serve %s: %s\n", model_path.c_str(),
                 service.status().ToString().c_str());
    return 1;
  }
  serve::GeoService& geo = *service.value();

  // Periodic scrape file: health + the full registry, atomically swapped in
  // place so a tail/scraper never reads a torn document. Destroyed (= final
  // export) before the service so the payload never outlives `geo`.
  std::unique_ptr<obs::MetricsExporter> exporter =
      tools::MakeMetricsExporter(args, [&geo] {
        std::string payload = "{\"schema\": \"edge-metrics-export.v1\",\n";
        payload += "\"health\": " + geo.HealthJson() + ",\n";
        payload += "\"stats\": " + geo.StatsJson() + ",\n";
        payload += "\"metrics\": " + obs::Registry::Global().ToJson() + "}\n";
        return payload;
      });
  if (args.Has("metrics-export") && exporter == nullptr) return Usage();
  // Every flag has been read by now: one nothing consumed is a typo or a
  // removed option, and serving without it would hide the mistake.
  if (!tools::NoUnreadFlags(args)) return Usage();

  g_waker = wake;
  InstallSignalHandlers();

  serve::ServeSessionOptions session_options;
  // Keep several batches' worth of requests in flight per stream; answer in
  // order.
  session_options.max_in_flight = 4 * options.max_batch;
  session_options.include_latency = canonical_flag != "true";

  int exit_code;
  if (args.Has("listen")) {
    net::LineServer::Options server_options;
    server_options.host = host;
    server_options.port = static_cast<uint16_t>(listen_port);
    server_options.max_line_bytes = static_cast<size_t>(max_line_bytes);
    server_options.waker = wake;
    exit_code = ServeTcp(&geo, model_path, session_options, server_options);
  } else {
    exit_code = ServeStdio(&geo, model_path, session_options, *wake,
                           static_cast<size_t>(max_line_bytes));
  }
  g_waker = nullptr;  // The waker dies with main's locals.

  tools::FlushObservability(args);
  return exit_code;
}
