/// edge_router — self-healing LDJSON scale-out router over N edge_serve
/// replicas.
///
/// Listens for the same line-delimited JSON protocol as edge_serve and fans
/// requests out to a fleet of `edge_serve --listen` replicas, preserving the
/// one-response-per-line, in-input-order contract per client connection.
///
///   edge_serve --model m.edge --gazetteer g.tsv --listen 7071 &
///   edge_serve --model m.edge --gazetteer g.tsv --listen 7072 &
///   edge_router --gazetteer g.tsv --listen 7070
///               --replicas 127.0.0.1:7071,127.0.0.1:7072
///
/// or, supervised fleet mode (the router spawns and respawns the replicas):
///
///   edge_router --gazetteer g.tsv --listen 7070 --fleet fleet.cfg
///   # fleet.cfg:  replica 127.0.0.1:7071 ./edge_serve --model m.edge ...
///
/// Dispatch (DESIGN.md §16): the router runs the same NER as the service and
/// consistent-hashes the sorted canonical entity-name set onto the replica
/// ring, so requests mentioning the same entities always land on the same
/// replica and per-replica LRU caches stay exact. Replica names<->node-ids
/// are bijective per model, which is why hashing names (the router holds no
/// model) partitions identically to hashing the service's node-id cache key.
/// A replica whose in-flight queue is --spill-threshold deeper than the
/// least-loaded one forfeits the request to that replica (losing only cache
/// locality, never correctness: predictions are bitwise-deterministic
/// functions of the entity set, whichever replica computes them).
///
/// Responses are forwarded verbatim — the router adds, rewrites and parses
/// nothing on the reply path — so bitwise parity with in-process serving is
/// preserved by construction across the network hop.
///
/// Control verbs:
///   - {"stats": true} / {"health": true}: broadcast to every live replica;
///     the client gets one aggregate line embedding each replica's raw reply
///     plus router-level fleet and healing state.
///   - {"reload": "new.edge"}: coordinated hot reload — the router drains
///     every replica's in-flight queue (new predictions are held, answered
///     after the reload in their input-order slots), broadcasts the reload,
///     and resumes once every replica acknowledges. In-flight batches finish
///     on their producing model generation (the PR-5 invariant, now
///     fleet-wide).
///
/// Self-healing (DESIGN.md §17): a replica that dies is routed around and
/// automatically redialed on a capped-exponential-backoff ladder with
/// deterministically seeded jitter. On reconnection it is brought onto the
/// fleet's current model and its LRU is re-warmed with the entity sets it
/// answered recently; it is readmitted to the ring only after acking
/// --readmit-probes consecutive health probes queued behind those replays.
/// Predict requests orphaned by a replica death fail over once to a
/// surviving replica (predictions are idempotent; broadcasts are not and
/// report the replica as down instead).
/// A replica that dies --flap-max-deaths times within --flap-window-s is
/// quarantined for --quarantine-s with a stats-visible reason. With every
/// replica down the router keeps accepting connections and answers predicts
/// with a structured retryable error until the first replica heals. Every
/// dial, request and broadcast carries a deadline — one wedged or
/// unroutable replica can never stall the event loop or the fleet.
///
/// Flags:
///   --replicas H:P,H:P,...  replica addresses (this or --fleet required)
///   --fleet CFG             supervised fleet config: one
///                           "replica H:P BIN ARG..." line per replica; the
///                           router spawns, reaps and respawns the processes
///   --gazetteer g.tsv       NER dictionary, same file the replicas use
///                           (required)
///   --listen PORT           client listen port; 0 = ephemeral (default 0);
///                           announced on stderr as "listening on HOST:PORT"
///   --host H                listen address            (default 127.0.0.1)
///   --max-line-bytes N      per-line size cap         (default 1 MiB)
///   --max-in-flight N       per-client pipelining window (default 128)
///   --spill-threshold N     least-loaded fallback trigger depth (default 32)
///   --vnodes N              ring virtual nodes per replica (default 64)
///   --probe-interval-ms D   liveness probe period for replicas in the
///                           ring, 0 = off                 (default 2000)
///   --connect-timeout-ms D  per-dial deadline             (default 1000)
///   --request-timeout-ms D  wedge deadline on the oldest in-flight request
///                           per replica link, 0 = off     (default 10000)
///   --broadcast-timeout-ms D  stats/health/reload aggregation deadline;
///                           late replicas report as down  (default 5000)
///   --redial-base-ms D      backoff ladder first delay    (default 100)
///   --redial-max-ms D       backoff ladder cap            (default 5000)
///   --readmit-probes N      consecutive clean probes gating readmission,
///                           sent back to back, each on the last's reply
///                                                         (default 2)
///   --flap-max-deaths N     circuit breaker: deaths tripping quarantine,
///                           0 = breaker off               (default 5)
///   --flap-window-s D       breaker sliding window        (default 30)
///   --quarantine-s D        quarantine cooldown           (default 30)
///   --warm-keys N           entity sets replayed to re-warm a readmitted
///                           replica's LRU, 0 = off        (default 64)
///   --heal-seed N           jitter seed; 0 derives one per replica address
///                           (default 0)
/// plus the shared observability flags.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "edge/net/line_server.h"
#include "edge/net/socket_util.h"
#include "edge/net/supervisor.h"
#include "edge/obs/json_util.h"
#include "edge/serve/json_codec.h"
#include "edge/serve/session.h"
#include "edge/text/ner.h"
#include "tool_args.h"

namespace {

using namespace edge;

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: edge_router (--replicas H:P,H:P,... | --fleet CFG)\n"
      "  --gazetteer g.tsv [--listen PORT] [--host H] [--max-line-bytes N]\n"
      "  [--max-in-flight N] [--spill-threshold N] [--vnodes N]\n"
      "  [--probe-interval-ms D] [--connect-timeout-ms D]\n"
      "  [--request-timeout-ms D] [--broadcast-timeout-ms D]\n"
      "  [--redial-base-ms D] [--redial-max-ms D] [--readmit-probes N]\n"
      "  [--flap-max-deaths N] [--flap-window-s D] [--quarantine-s D]\n"
      "  [--warm-keys N] [--heal-seed N]\n"
      "  [--log-level L] [--metrics-out m.json] [--trace-out t.json]\n"
      "speaks the edge_serve LDJSON protocol and dispatches to N\n"
      "edge_serve --listen replicas by consistent hash of the request's\n"
      "sorted entity-name set; downed replicas are redialed with backoff,\n"
      "re-warmed, then readmitted after --readmit-probes clean probes sent\n"
      "back to back (--probe-interval-ms paces only the liveness probes of\n"
      "replicas in the ring); orphaned predicts fail over to surviving\n"
      "replicas; --fleet spawns and respawns the replica processes under a\n"
      "flap circuit breaker\n");
  return 2;
}

/// FNV-1a 64 — stable across runs/platforms, which keeps the ring layout
/// (and therefore per-replica cache residency) reproducible.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr char kDegradedError[] =
    "{\"error\":\"no replica available\",\"degraded\":true,\"retryable\":true}";

enum class TokenType {
  kPredict,    ///< Client predict; reply forwarded to its slot.
  kBroadcast,  ///< Part of a stats/health/reload aggregate.
  kProbe,      ///< Periodic liveness probe; reply feeds the supervisor.
  kSwallow,    ///< Warm-up replay or readmission reload; reply dropped.
};

/// Aggregation state for one broadcast verb (stats/health/reload): the reply
/// slot it will eventually fill, plus each replica's raw answer.
struct Broadcast {
  std::string key;  ///< "stats", "health" or "reload".
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string client_id;
  size_t waiting = 0;
  double deadline = 0.0;  ///< Absolute; late replicas report as down.
  bool finished = false;  ///< Guard: down-paths can race the last reply in.
  std::vector<std::pair<std::string, std::string>> replies;  ///< addr, raw.
  std::vector<std::string> down;  ///< Addresses that never answered.
};

/// One expected reply from a replica. Replicas answer strictly in order per
/// connection, so a FIFO of tokens fully describes reply routing — no id
/// rewriting on the wire. Predicts carry their raw request line and entity
/// key so a replica death can re-dispatch them (predictions are pure
/// functions of the entity set — the PR-4 cache-exactness invariant makes
/// them idempotent).
struct Token {
  TokenType type = TokenType::kPredict;
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string raw_line;    ///< Predict only: verbatim request, for failover.
  std::string entity_key;  ///< Predict only: sorted canonical entity names.
  bool retried = false;    ///< Already failed over once; next failure errors.
  bool expired = false;    ///< Broadcast deadline passed; swallow the reply.
  double sent_at = 0.0;    ///< Dispatch time; bounds the link's pipeline age.
  std::shared_ptr<Broadcast> broadcast;
};

struct Replica {
  std::string addr;
  std::string host;
  uint16_t port = 0;
  std::vector<std::string> argv;  ///< Fleet mode spawn command; else empty.
  int pid = -1;                   ///< Fleet mode live child pid; -1 if none.
  uint64_t respawns = 0;
  uint64_t failovers = 0;  ///< Predicts re-dispatched off this replica.
  net::LineServer::ConnId conn = 0;  ///< Valid only while up/probation.
  int dial_fd = -1;                  ///< In-flight non-blocking dial.
  double dial_deadline = 0.0;
  std::optional<net::ReplicaSupervisor> sup;
  std::deque<Token> fifo;  ///< Oldest expected reply at the front.
  std::string last_health;  ///< Raw reply to the latest periodic probe.
  /// Most recent distinct entity-set keys (+ raw request lines) this replica
  /// answered; replayed on readmission to re-warm its exact LRU.
  std::deque<std::pair<std::string, std::string>> warm;
};

/// One ordered response slot of a client connection. Slots are allocated in
/// input order and flushed from the front only when ready, so replies that
/// complete out of order (different replicas, broadcasts, failovers) still
/// deliver in request order.
struct Slot {
  bool ready = false;
  std::string line;
};

struct Client {
  std::deque<Slot> slots;
  uint64_t front_seq = 0;  ///< Sequence number of slots.front().
  size_t line_number = 0;
  size_t bad_lines = 0;
  bool draining = false;  ///< EOF seen: flush remaining slots, then close.
};

/// A predict request held while a coordinated reload drains the fleet.
struct Held {
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string raw_line;
  std::string entity_key;
  bool retried = false;  ///< Was already failed over before the hold.
};

struct ReloadJob {
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string client_id;
  std::string path;
};

class Router {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    size_t max_line_bytes = net::LineFramer::kDefaultMaxLineBytes;
    size_t max_in_flight = 128;
    size_t spill_threshold = 32;
    size_t vnodes = 64;
    double probe_interval_ms = 2000.0;
    double connect_timeout_ms = 1000.0;
    double request_timeout_ms = 10000.0;
    double broadcast_timeout_ms = 5000.0;
    size_t warm_keys = 64;
    uint64_t heal_seed = 0;  ///< 0 = derive per replica address.
    bool fleet = false;
    net::ReplicaSupervisor::Options sup;
  };

  Router(text::Gazetteer gazetteer, Options options)
      : ner_(std::move(gazetteer)),
        options_(options),
        epoch_(std::chrono::steady_clock::now()) {}

  /// Binds the client listener, then brings the fleet up: dial-only mode
  /// makes one bounded connect attempt per replica (failures enter the
  /// redial loop instead of failing startup); fleet mode spawns every child
  /// and lets the redial loop admit them as they bind.
  Status Start(const std::vector<net::FleetReplicaSpec>& specs) {
    net::LineServer::Options server_options;
    server_options.host = options_.host;
    server_options.port = options_.port;
    server_options.max_line_bytes = options_.max_line_bytes;
    net::LineServer::Callbacks callbacks;
    callbacks.on_open = [this](net::LineServer::ConnId id) { OnOpen(id); };
    callbacks.on_line = [this](net::LineServer::ConnId id, std::string&& line) {
      OnLine(id, std::move(line));
    };
    callbacks.on_oversized = [this](net::LineServer::ConnId id) {
      OnOversized(id);
    };
    callbacks.on_eof = [this](net::LineServer::ConnId id) { OnEof(id); };
    callbacks.on_close = [this](net::LineServer::ConnId id) { OnClose(id); };
    auto listening =
        net::LineServer::Listen(server_options, std::move(callbacks));
    if (!listening.ok()) return listening.status();
    server_ = std::move(listening).value();

    double now = Now();
    replicas_.reserve(specs.size());
    for (const net::FleetReplicaSpec& spec : specs) {
      Replica replica;
      replica.addr = spec.addr;
      replica.argv = spec.argv;
      Status split =
          net::SplitHostPort(replica.addr, &replica.host, &replica.port);
      if (!split.ok()) return split;
      uint64_t seed = options_.heal_seed ^ Fnv1a(replica.addr);
      if (seed == 0) seed = Fnv1a(replica.addr + "#seed");
      if (options_.fleet) {
        Result<int> spawned = net::SpawnProcess(replica.argv);
        if (spawned.ok()) {
          replica.pid = spawned.value();
        } else {
          std::fprintf(stderr, "edge_router: spawn %s: %s\n",
                       replica.addr.c_str(),
                       spawned.status().ToString().c_str());
        }
        // The child has not bound yet; the redial loop admits it.
        replica.sup.emplace(options_.sup, seed, now,
                            net::ReplicaHealth::kBackoff);
      } else {
        Result<int> fd =
            net::ConnectTcp(replica.host, replica.port,
                            static_cast<int>(options_.connect_timeout_ms));
        if (fd.ok()) {
          replica.conn = server_->Adopt(fd.value(), ReplicaLineCap());
          replica_by_conn_[replica.conn] = replicas_.size();
          // Readmission probing gates *re*-admission; a replica that was
          // reachable at startup takes traffic immediately, which keeps the
          // static-fleet bring-up contract (and its parity harness) intact.
          replica.sup.emplace(options_.sup, seed, now,
                              net::ReplicaHealth::kUp);
        } else {
          std::fprintf(stderr,
                       "edge_router: replica %s unreachable (%s); will "
                       "redial with backoff\n",
                       replica.addr.c_str(), fd.status().ToString().c_str());
          replica.sup.emplace(options_.sup, seed, now,
                              net::ReplicaHealth::kBackoff);
        }
      }
      replicas_.push_back(std::move(replica));
    }
    // The ring hashes replica *addresses* (not indices) so the layout is a
    // pure function of the fleet spec, independent of --replicas order.
    for (size_t r = 0; r < replicas_.size(); ++r) {
      for (size_t v = 0; v < options_.vnodes; ++v) {
        ring_[Fnv1a(replicas_[r].addr + "#" + std::to_string(v))] = r;
      }
    }
    return Status::Ok();
  }

  uint16_t port() const { return server_->port(); }

  void Run() {
    double last_probe = Now();
    while (!g_stop) {
      // Healing in progress (dials, backoff deadlines, probation) wants a
      // finer tick than the idle loop; pending replies want the finest.
      server_->RunOnce(PendingWork() ? 5 : (HealingActive() ? 20 : 100));
      FlushClients();
      MaybeFinishDrain();
      double now = Now();
      Heal(now);
      // Liveness tick for the ring. It pauses during a reload, so the drain
      // barrier never waits on a probe reply.
      if (options_.probe_interval_ms > 0 && state_ == State::kRunning &&
          (now - last_probe) * 1000.0 >= options_.probe_interval_ms) {
        last_probe = now;
        SendProbes(now);
      }
    }
    // Graceful shutdown: answer what can still be answered, flush, exit.
    server_->StopAccepting();
    for (int spins = 0; spins < 500 && PendingWork(); ++spins) {
      server_->RunOnce(10);
      FlushClients();
      MaybeFinishDrain();
    }
    for (int spins = 0; spins < 500 && !server_->idle(); ++spins) {
      server_->RunOnce(10);
    }
    ShutdownFleet();
  }

 private:
  enum class State {
    kRunning,
    kDraining,   ///< Reload requested: waiting for replica FIFOs to empty.
    kReloading,  ///< Reload broadcast sent: waiting for every ack.
  };

  static const char* StateName(State state) {
    switch (state) {
      case State::kRunning: return "running";
      case State::kDraining: return "draining";
      case State::kReloading: return "reloading";
    }
    return "unknown";
  }

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Replica replies (full mixtures, attention, stats payloads) dwarf client
  /// requests, so replica links get a much larger framing cap than the
  /// client-facing --max-line-bytes.
  size_t ReplicaLineCap() const {
    return std::max<size_t>(options_.max_line_bytes * 16, 16u << 20);
  }

  bool PendingWork() const {
    for (const Replica& replica : replicas_) {
      if (!replica.fifo.empty()) return true;
    }
    for (const auto& [id, client] : clients_) {
      if (!client.slots.empty()) return true;
    }
    return false;
  }

  bool HealingActive() const {
    for (const Replica& replica : replicas_) {
      if (replica.sup->state() != net::ReplicaHealth::kUp) return true;
    }
    return false;
  }

  // --- client side ---------------------------------------------------------

  void OnOpen(net::LineServer::ConnId id) { clients_.emplace(id, Client()); }

  void OnLine(net::LineServer::ConnId id, std::string&& line) {
    auto replica_it = replica_by_conn_.find(id);
    if (replica_it != replica_by_conn_.end()) {
      OnReplicaLine(replica_it->second, std::move(line));
      return;
    }
    auto it = clients_.find(id);
    if (it == clients_.end()) return;
    Client& client = it->second;
    ++client.line_number;

    serve::ServeRequest request;
    std::string error;
    if (!serve::ParseRequestLine(line, &request, &error)) {
      ++client.bad_lines;
      PushLiteral(id, serve::BadRequestLine(error, client.line_number));
    } else if (request.stats || request.health) {
      uint64_t seq = PushPending(id);
      StartBroadcast(request.stats ? "stats" : "health", id, seq,
                     std::move(request.id));
    } else if (!request.reload_path.empty()) {
      uint64_t seq = PushPending(id);
      ReloadJob job;
      job.client = id;
      job.seq = seq;
      job.client_id = std::move(request.id);
      job.path = std::move(request.reload_path);
      reload_jobs_.push_back(std::move(job));
      if (state_ == State::kRunning) state_ = State::kDraining;
    } else {
      uint64_t seq = PushPending(id);
      std::string key = EntityKey(request.text);
      if (state_ != State::kRunning) {
        // A coordinated reload is in flight: hold the request; its slot keeps
        // its place in the client's output order.
        Held held;
        held.client = id;
        held.seq = seq;
        held.raw_line = std::move(line);
        held.entity_key = std::move(key);
        held_.push_back(std::move(held));
      } else {
        Dispatch(id, seq, line, key, /*retried=*/false);
      }
    }
    // Pipelining-window pause on every path that allocated a slot — a
    // pipelining client must not grow its slot queue (or the reload hold
    // list) without bound, whatever kind of line it sent.
    auto tail = clients_.find(id);
    if (tail != clients_.end() &&
        tail->second.slots.size() >= options_.max_in_flight) {
      server_->PauseReading(id);
    }
  }

  void OnOversized(net::LineServer::ConnId id) {
    auto replica_it = replica_by_conn_.find(id);
    if (replica_it != replica_by_conn_.end()) {
      // The framer already discarded the reply, so popping nothing would
      // permanently desync positional reply routing on this link: every
      // later reply would reach the wrong client/slot. Fatal for the
      // replica — CloseNow fires OnClose -> OnReplicaDown, which fails the
      // pending predicts over and counts it out of pending broadcasts.
      std::fprintf(stderr,
                   "edge_router: replica %s sent an oversized reply line\n",
                   replicas_[replica_it->second].addr.c_str());
      server_->CloseNow(id);
      return;
    }
    auto it = clients_.find(id);
    if (it == clients_.end()) return;
    ++it->second.line_number;
    ++it->second.bad_lines;
    PushLiteral(id, serve::BadRequestLine("line exceeds maximum length",
                                          it->second.line_number));
  }

  void OnEof(net::LineServer::ConnId id) {
    if (replica_by_conn_.count(id) > 0) {
      server_->Close(id);  // A half-closed replica is a dead replica.
      return;
    }
    auto it = clients_.find(id);
    if (it == clients_.end()) return;
    it->second.draining = true;
    if (it->second.slots.empty()) server_->Close(id);
  }

  void OnClose(net::LineServer::ConnId id) {
    auto replica_it = replica_by_conn_.find(id);
    if (replica_it != replica_by_conn_.end()) {
      OnReplicaDown(replica_it->second);
      return;
    }
    clients_.erase(id);
    // Held requests and broadcast slots for a vanished client resolve as
    // no-ops in Fulfill; nothing to scrub eagerly.
  }

  /// Allocates the next in-order response slot; returns its sequence number.
  uint64_t PushPending(net::LineServer::ConnId id) {
    Client& client = clients_[id];
    client.slots.emplace_back();
    return client.front_seq + client.slots.size() - 1;
  }

  void PushLiteral(net::LineServer::ConnId id, std::string line) {
    Client& client = clients_[id];
    Slot slot;
    slot.ready = true;
    slot.line = std::move(line);
    client.slots.push_back(std::move(slot));
  }

  /// Marks slot (client, seq) answered. Tolerates vanished clients.
  void Fulfill(uint64_t client_id, uint64_t seq, std::string line) {
    auto it = clients_.find(client_id);
    if (it == clients_.end()) return;
    Client& client = it->second;
    if (seq < client.front_seq) return;
    size_t index = static_cast<size_t>(seq - client.front_seq);
    if (index >= client.slots.size()) return;
    client.slots[index].ready = true;
    client.slots[index].line = std::move(line);
  }

  /// Delivers every ready head slot, in order, per client; manages the
  /// per-client pipelining window and drain-close.
  ///
  /// Send() and ResumeReading() can synchronously tear the connection down
  /// (write error / dispatched frame -> OnClose -> clients_.erase), so this
  /// iterates a snapshot of ids and re-finds the client after every call
  /// into the server.
  void FlushClients() {
    std::vector<net::LineServer::ConnId> ids;
    ids.reserve(clients_.size());
    for (const auto& [id, client] : clients_) ids.push_back(id);
    std::vector<net::LineServer::ConnId> to_close;
    for (net::LineServer::ConnId id : ids) {
      auto it = clients_.find(id);
      if (it == clients_.end()) continue;
      bool was_over = it->second.slots.size() >= options_.max_in_flight;
      for (;;) {
        it = clients_.find(id);
        if (it == clients_.end()) break;
        Client& client = it->second;
        if (client.slots.empty() || !client.slots.front().ready) break;
        // Pop before Send: a failed Send erases the client, and the slot
        // must not be popped off a freed deque afterwards.
        std::string line = std::move(client.slots.front().line);
        client.slots.pop_front();
        ++client.front_seq;
        server_->Send(id, line);
      }
      it = clients_.find(id);
      if (it == clients_.end()) continue;
      if (was_over && it->second.slots.size() < options_.max_in_flight) {
        server_->ResumeReading(id);
        it = clients_.find(id);
        if (it == clients_.end()) continue;
      }
      if (it->second.draining && it->second.slots.empty()) to_close.push_back(id);
    }
    for (net::LineServer::ConnId id : to_close) server_->Close(id);
  }

  // --- dispatch ------------------------------------------------------------

  /// Sorted canonical entity names joined by ',' — the name-space image of
  /// the service's sorted node-id cache key.
  std::string EntityKey(const std::string& text) {
    std::vector<text::Entity> entities = ner_.Extract(text);
    std::vector<std::string> names;
    names.reserve(entities.size());
    for (text::Entity& e : entities) names.push_back(std::move(e.name));
    std::sort(names.begin(), names.end());
    std::string key;
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) key.push_back(',');
      key += names[i];
    }
    return key;
  }

  /// Ring walk from hash(key): first traffic-taking replica at or after the
  /// point.
  Replica* HashPick(const std::string& key) {
    if (ring_.empty()) return nullptr;
    auto it = ring_.lower_bound(Fnv1a(key));
    for (size_t steps = 0; steps < ring_.size(); ++steps) {
      if (it == ring_.end()) it = ring_.begin();
      if (replicas_[it->second].sup->TakesTraffic()) {
        return &replicas_[it->second];
      }
      ++it;
    }
    return nullptr;
  }

  Replica* LeastLoaded() {
    Replica* best = nullptr;
    for (Replica& replica : replicas_) {
      if (!replica.sup->TakesTraffic()) continue;
      if (best == nullptr || replica.fifo.size() < best->fifo.size()) {
        best = &replica;
      }
    }
    return best;
  }

  /// Remembers (key, line) as recent content of `replica`'s LRU, newest at
  /// the back, one entry per distinct key.
  void RecordWarm(Replica& replica, const std::string& entity_key,
                  const std::string& raw_line) {
    if (options_.warm_keys == 0 || entity_key.empty()) return;
    for (auto it = replica.warm.begin(); it != replica.warm.end(); ++it) {
      if (it->first == entity_key) {
        replica.warm.erase(it);
        break;
      }
    }
    replica.warm.emplace_back(entity_key, raw_line);
    while (replica.warm.size() > options_.warm_keys) replica.warm.pop_front();
  }

  void Dispatch(uint64_t client, uint64_t seq, const std::string& raw_line,
                const std::string& entity_key, bool retried) {
    Replica* chosen = HashPick(entity_key);
    Replica* least = LeastLoaded();
    if (chosen == nullptr || least == nullptr) {
      // Degradation mode: every replica is down, but the router stays up and
      // tells the client the truth — retry, don't give up on the fleet.
      Fulfill(client, seq, kDegradedError);
      return;
    }
    // Least-loaded fallback: spill off a hot shard once its queue is
    // spill-threshold deeper than the coolest one. Cache locality is lost
    // for this request; bitwise output is not (predictions are
    // deterministic in the entity set).
    if (chosen->fifo.size() >= least->fifo.size() + options_.spill_threshold) {
      chosen = least;
    }
    Token token;
    token.type = TokenType::kPredict;
    token.client = client;
    token.seq = seq;
    token.raw_line = raw_line;
    token.entity_key = entity_key;
    token.retried = retried;
    token.sent_at = Now();
    RecordWarm(*chosen, entity_key, raw_line);
    // Token before Send: a synchronously failing Send tears the replica down
    // (OnClose -> OnReplicaDown), which must see this request to fail it
    // over — pushed after the fact it would strand in a drained FIFO.
    net::LineServer::ConnId conn = chosen->conn;
    chosen->fifo.push_back(std::move(token));
    // Forwarded verbatim: the replica parses exactly what the client wrote,
    // so parity with in-process serving cannot drift in the router.
    server_->Send(conn, raw_line);
  }

  /// Re-dispatches a predict orphaned by a replica death. At most once per
  /// request: predictions are idempotent (bitwise-deterministic in the
  /// entity set), but a request that has now killed — or been orphaned by —
  /// two replicas gets a structured error instead of a third chance.
  void Failover(Token token, size_t origin, double now) {
    token.retried = true;
    token.sent_at = now;
    ++failovers_;
    ++replicas_[origin].failovers;
    if (state_ != State::kRunning) {
      // Mid-reload: ride the hold list; FinishReload re-dispatches it into
      // its original output slot.
      Held held;
      held.client = token.client;
      held.seq = token.seq;
      held.raw_line = std::move(token.raw_line);
      held.entity_key = std::move(token.entity_key);
      held.retried = true;
      held_.push_back(std::move(held));
      return;
    }
    Replica* target = LeastLoaded();
    if (target == nullptr) {
      Fulfill(token.client, token.seq, kDegradedError);
      return;
    }
    const std::string line = token.raw_line;
    RecordWarm(*target, token.entity_key, line);
    net::LineServer::ConnId conn = target->conn;
    target->fifo.push_back(std::move(token));
    server_->Send(conn, line);
  }

  // --- replica side --------------------------------------------------------

  void OnReplicaLine(size_t replica_index, std::string&& line) {
    Replica& replica = replicas_[replica_index];
    if (replica.fifo.empty()) return;  // Unsolicited; drop.
    Token token = std::move(replica.fifo.front());
    replica.fifo.pop_front();
    switch (token.type) {
      case TokenType::kPredict:
        Fulfill(token.client, token.seq, std::move(line));
        break;
      case TokenType::kBroadcast:
        // A reply landing after the broadcast deadline (or a failure path)
        // already counted this replica as down; swallow it.
        if (token.expired || token.broadcast->finished) break;
        token.broadcast->replies.emplace_back(replica.addr, std::move(line));
        if (--token.broadcast->waiting == 0) FinishBroadcast(*token.broadcast);
        break;
      case TokenType::kProbe: {
        double now = Now();
        if (line.find("\"health\"") != std::string::npos) {
          replica.last_health = std::move(line);
          bool was_probation =
              replica.sup->state() == net::ReplicaHealth::kProbation;
          replica.sup->OnProbeOk(now);
          if (replica.sup->state() == net::ReplicaHealth::kProbation) {
            // Probation is paced by replies, not by the liveness tick: the
            // next probe goes out as soon as this one comes back clean.
            SendProbe(replica_index, now);
          } else if (was_probation) {
            std::fprintf(stderr,
                         "edge_router: replica %s readmitted after %d clean "
                         "probes\n",
                         replica.addr.c_str(), options_.sup.readmit_probes);
          }
        } else {
          // Not a health object: the link is desynced or the replica is
          // sick. Counts as a death; the connection goes with it.
          replica.sup->OnProbeFail(now);
          MaybeQuarantineChild(replica);
          server_->CloseNow(replica.conn);
        }
        break;
      }
      case TokenType::kSwallow:
        break;  // Warm-up / readmission-reload answer; drop by design.
    }
  }

  void OnReplicaDown(size_t replica_index) {
    Replica& replica = replicas_[replica_index];
    double now = Now();
    replica_by_conn_.erase(replica.conn);
    replica.conn = 0;
    replica.sup->OnDown(now);
    std::fprintf(stderr, "edge_router: replica %s down (%zu in flight) -> %s\n",
                 replica.addr.c_str(), replica.fifo.size(),
                 replica.sup->state_name());
    MaybeQuarantineChild(replica);
    // Every reply this replica still owed: predicts fail over (once),
    // broadcasts count the replica out of their aggregate, probes and
    // swallowed replays just vanish.
    std::deque<Token> orphaned;
    orphaned.swap(replica.fifo);
    for (Token& token : orphaned) {
      switch (token.type) {
        case TokenType::kPredict:
          if (!token.retried) {
            Failover(std::move(token), replica_index, now);
          } else {
            Fulfill(token.client, token.seq,
                    "{\"error\":\"replica " + replica.addr +
                        " failed after failover\",\"retryable\":true}");
          }
          break;
        case TokenType::kBroadcast:
          if (!token.expired && !token.broadcast->finished) {
            token.broadcast->down.push_back(replica.addr);
            if (--token.broadcast->waiting == 0) {
              FinishBroadcast(*token.broadcast);
            }
          }
          break;
        case TokenType::kProbe:
        case TokenType::kSwallow:
          break;
      }
    }
  }

  /// A replica whose breaker just tripped must also stop burning CPU: in
  /// fleet mode the quarantined child is terminated (and respawned only
  /// after the cooldown).
  void MaybeQuarantineChild(Replica& replica) {
    if (replica.sup->state() != net::ReplicaHealth::kQuarantined) return;
    std::fprintf(stderr, "edge_router: replica %s quarantined (%s)\n",
                 replica.addr.c_str(),
                 replica.sup->quarantine_reason().c_str());
    if (replica.pid > 0) net::TerminateProcess(replica.pid, /*force=*/false);
  }

  // --- healing loop --------------------------------------------------------

  /// One pass of the supervisor duties: reap dead children, advance
  /// in-flight dials, start due redials, wedge-check request deadlines and
  /// expire overdue broadcasts. Never blocks.
  void Heal(double now) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      Replica& replica = replicas_[i];
      if (replica.pid > 0) {
        int code = 0;
        if (net::ReapProcess(replica.pid, &code)) {
          std::fprintf(stderr,
                       "edge_router: replica %s pid %d exited (code %d)\n",
                       replica.addr.c_str(), replica.pid, code);
          replica.pid = -1;
          // The connection teardown (if one was up) arrives via OnClose on
          // its own; the supervisor hears about it there.
        }
      }
      if (replica.dial_fd >= 0) {
        net::ConnectProgress progress = net::CheckConnect(replica.dial_fd);
        if (progress == net::ConnectProgress::kConnected) {
          AdmitConnection(i, now);
        } else if (progress == net::ConnectProgress::kFailed ||
                   now >= replica.dial_deadline) {
          net::CloseFd(replica.dial_fd);
          replica.dial_fd = -1;
          replica.sup->OnDown(now);  // Dial failure: ladder only, no breaker.
        }
        continue;
      }
      if (replica.sup->ShouldDial(now)) {
        StartDial(i, now);
        continue;
      }
      // Wedge detection: replies are strictly ordered per link, so the front
      // token bounds the age of the whole pipeline. Broadcasts are excluded
      // (they carry their own fleet-wide deadline below).
      if (options_.request_timeout_ms > 0 && !replica.fifo.empty() &&
          (replica.sup->state() == net::ReplicaHealth::kUp ||
           replica.sup->state() == net::ReplicaHealth::kProbation)) {
        const Token& front = replica.fifo.front();
        if (front.type != TokenType::kBroadcast &&
            (now - front.sent_at) * 1000.0 > options_.request_timeout_ms) {
          std::fprintf(stderr,
                       "edge_router: replica %s wedged (front request older "
                       "than %.0fms); dropping link\n",
                       replica.addr.c_str(), options_.request_timeout_ms);
          server_->CloseNow(replica.conn);
        }
      }
    }
    ExpireBroadcasts(now);
  }

  void StartDial(size_t replica_index, double now) {
    Replica& replica = replicas_[replica_index];
    if (!replica.argv.empty() && replica.pid <= 0) {
      // Fleet mode: nothing is listening until a child exists. Respawn
      // first; the dial below typically fails until the child binds, which
      // just climbs the backoff ladder without feeding the breaker.
      Result<int> spawned = net::SpawnProcess(replica.argv);
      if (spawned.ok()) {
        replica.pid = spawned.value();
        ++replica.respawns;
        std::fprintf(stderr, "edge_router: respawned replica %s (pid %d)\n",
                     replica.addr.c_str(), replica.pid);
      } else {
        std::fprintf(stderr, "edge_router: respawn %s: %s\n",
                     replica.addr.c_str(),
                     spawned.status().ToString().c_str());
      }
    }
    replica.sup->OnDialStart(now);
    Result<int> fd = net::StartConnectTcp(replica.host, replica.port);
    if (!fd.ok()) {
      replica.sup->OnDown(now);
      return;
    }
    replica.dial_fd = fd.value();
    replica.dial_deadline = now + options_.connect_timeout_ms / 1000.0;
  }

  /// A redial completed: adopt the link and start probation. The replica is
  /// brought onto the fleet's current model (it may have restarted with its
  /// original argv) and its LRU is re-warmed by replaying the entity sets it
  /// answered recently — answers to both are swallowed, so readmission is
  /// invisible to clients. The first probe goes right behind the replays:
  /// replies are strictly ordered per link, so a clean one proves the
  /// replica has handled the model path and answered every warm key.
  void AdmitConnection(size_t replica_index, double now) {
    Replica& replica = replicas_[replica_index];
    int fd = replica.dial_fd;
    replica.dial_fd = -1;
    replica.conn = server_->Adopt(fd, ReplicaLineCap());
    replica_by_conn_[replica.conn] = replica_index;
    replica.fifo.clear();  // Defensive; OnReplicaDown already drained it.
    replica.sup->OnConnected(now);
    std::fprintf(
        stderr,
        "edge_router: replica %s connected; probation (%d clean probes to "
        "readmit)\n",
        replica.addr.c_str(), options_.sup.readmit_probes);
    if (!last_reload_path_.empty()) {
      std::string line = "{\"reload\":";
      obs::internal::AppendJsonString(&line, last_reload_path_);
      line += "}";
      SendSwallowed(replica_index, line, now);
    }
    std::deque<std::pair<std::string, std::string>> warm;
    warm.swap(replica.warm);
    for (const auto& [key, line] : warm) {
      // Send can synchronously kill the link; past that point the rest of
      // the replay is pointless (and the keys stay remembered for next
      // time).
      if (replica.sup->state() != net::ReplicaHealth::kProbation) break;
      SendSwallowed(replica_index, line, now);
    }
    replica.warm = std::move(warm);
    if (replica.sup->state() == net::ReplicaHealth::kProbation) {
      SendProbe(replica_index, now);
    }
  }

  void SendSwallowed(size_t replica_index, const std::string& line,
                     double now) {
    Replica& replica = replicas_[replica_index];
    Token token;
    token.type = TokenType::kSwallow;
    token.sent_at = now;
    net::LineServer::ConnId conn = replica.conn;
    replica.fifo.push_back(std::move(token));
    server_->Send(conn, line);
  }

  // --- broadcasts (stats / health / reload) --------------------------------

  std::shared_ptr<Broadcast> MakeBroadcast(const char* key, uint64_t client,
                                           uint64_t seq,
                                           std::string client_id) {
    auto broadcast = std::make_shared<Broadcast>();
    broadcast->key = key;
    broadcast->client = client;
    broadcast->seq = seq;
    broadcast->client_id = std::move(client_id);
    broadcast->deadline = Now() + options_.broadcast_timeout_ms / 1000.0;
    if (options_.broadcast_timeout_ms > 0) {
      active_broadcasts_.push_back(broadcast);
    }
    return broadcast;
  }

  /// Sends `line` to every traffic-taking replica as part of `broadcast`.
  void BroadcastToFleet(const std::shared_ptr<Broadcast>& broadcast,
                        const std::string& line) {
    double now = Now();
    for (Replica& replica : replicas_) {
      if (!replica.sup->TakesTraffic()) {
        broadcast->down.push_back(replica.addr);
        continue;
      }
      Token token;
      token.type = TokenType::kBroadcast;
      token.broadcast = broadcast;
      token.sent_at = now;
      net::LineServer::ConnId conn = replica.conn;
      // Token before Send (see Dispatch): a synchronous failure must find
      // the token to count this replica out of the aggregate.
      ++broadcast->waiting;
      replica.fifo.push_back(std::move(token));
      server_->Send(conn, line);
    }
    if (broadcast->waiting == 0 && !broadcast->finished) {
      FinishBroadcast(*broadcast);
    }
  }

  void StartBroadcast(const char* key, uint64_t client, uint64_t seq,
                      std::string client_id) {
    auto broadcast = MakeBroadcast(key, client, seq, std::move(client_id));
    BroadcastToFleet(broadcast, std::string("{\"") + key + "\":true}");
  }

  /// Broadcast deadlines: a stats/health aggregate stops waiting for a slow
  /// replica (it reports as down but keeps its link — a slow stats payload
  /// is not a dead replica); a reload that misses the deadline drops the
  /// stragglers' links instead, because their model generation is now
  /// unknown and the redial/readmission path re-reloads them.
  void ExpireBroadcasts(double now) {
    if (active_broadcasts_.empty()) return;
    std::vector<std::weak_ptr<Broadcast>> pending;
    pending.swap(active_broadcasts_);
    for (std::weak_ptr<Broadcast>& weak : pending) {
      std::shared_ptr<Broadcast> broadcast = weak.lock();
      if (!broadcast || broadcast->finished) continue;
      if (now < broadcast->deadline) {
        active_broadcasts_.push_back(std::move(weak));
        continue;
      }
      if (broadcast->key == "reload") {
        for (size_t i = 0; i < replicas_.size() && !broadcast->finished; ++i) {
          Replica& replica = replicas_[i];
          bool owes = false;
          for (const Token& token : replica.fifo) {
            if (token.broadcast == broadcast && !token.expired) {
              owes = true;
              break;
            }
          }
          if (owes) {
            std::fprintf(stderr,
                         "edge_router: replica %s missed the reload deadline; "
                         "dropping link\n",
                         replica.addr.c_str());
            server_->CloseNow(replica.conn);
          }
        }
      } else {
        for (Replica& replica : replicas_) {
          for (Token& token : replica.fifo) {
            if (token.broadcast != broadcast || token.expired) continue;
            token.expired = true;
            broadcast->down.push_back(replica.addr);
            if (--broadcast->waiting == 0 && !broadcast->finished) {
              FinishBroadcast(*broadcast);
            }
          }
        }
      }
    }
  }

  /// Composes the aggregate reply: router fleet + healing state plus each
  /// replica's raw answer embedded verbatim (replica replies are JSON
  /// objects).
  void FinishBroadcast(Broadcast& broadcast) {
    if (broadcast.finished) return;
    broadcast.finished = true;
    if (broadcast.key == "reload") {
      FinishReload(broadcast);
      return;
    }
    std::string out = "{";
    if (!broadcast.client_id.empty()) {
      out += "\"id\":";
      obs::internal::AppendJsonString(&out, broadcast.client_id);
      out += ",";
    }
    out += "\"" + broadcast.key + "\":{";
    AppendRouterObject(&out);
    out += ",\"replicas\":[";
    for (size_t i = 0; i < broadcast.replies.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"addr\":\"" + broadcast.replies[i].first +
             "\",\"reply\":" + broadcast.replies[i].second + "}";
    }
    for (const std::string& addr : broadcast.down) {
      if (out.back() != '[') out += ",";
      out += "{\"addr\":\"" + addr + "\",\"up\":false}";
    }
    out += "]}}";
    Fulfill(broadcast.client, broadcast.seq, std::move(out));
  }

  /// The `"router":{...}` fleet/recovery object of stats and health
  /// aggregates — the schema contract is tools/schemas/router_stats.schema.json.
  void AppendRouterObject(std::string* out) {
    double now = Now();
    uint64_t redials = 0;
    uint64_t breaker_trips = 0;
    uint64_t respawns = 0;
    for (const Replica& replica : replicas_) {
      redials += replica.sup->redials();
      breaker_trips += replica.sup->breaker_trips();
      respawns += replica.respawns;
    }
    *out += "\"router\":{\"replicas\":" + std::to_string(replicas_.size()) +
            ",\"up\":" + std::to_string(UpCount()) + ",\"state\":\"" +
            StateName(state_) + "\",\"fleet\":" +
            (options_.fleet ? "true" : "false") +
            ",\"failovers\":" + std::to_string(failovers_) +
            ",\"redials\":" + std::to_string(redials) +
            ",\"breaker_trips\":" + std::to_string(breaker_trips) +
            ",\"respawns\":" + std::to_string(respawns) +
            ",\"replica_states\":[";
    for (size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& replica = replicas_[i];
      if (i > 0) *out += ",";
      *out += "{\"addr\":";
      obs::internal::AppendJsonString(out, replica.addr);
      *out += ",\"state\":\"";
      *out += replica.sup->state_name();
      *out += "\",\"redials\":" + std::to_string(replica.sup->redials()) +
              ",\"deaths\":" + std::to_string(replica.sup->deaths()) +
              ",\"failovers\":" + std::to_string(replica.failovers) +
              ",\"breaker_trips\":" +
              std::to_string(replica.sup->breaker_trips()) +
              ",\"probe_streak\":" + std::to_string(replica.sup->probe_streak()) +
              ",\"since_transition_s\":";
      obs::internal::AppendJsonDouble(out, replica.sup->SinceTransition(now));
      if (options_.fleet) {
        *out += ",\"pid\":" + std::to_string(replica.pid) +
                ",\"respawns\":" + std::to_string(replica.respawns);
      }
      if (!replica.sup->quarantine_reason().empty()) {
        *out += ",\"quarantine_reason\":";
        obs::internal::AppendJsonString(out, replica.sup->quarantine_reason());
      }
      *out += "}";
    }
    *out += "]}";
  }

  size_t UpCount() const {
    size_t up = 0;
    for (const Replica& replica : replicas_) {
      up += replica.sup->TakesTraffic() ? 1 : 0;
    }
    return up;
  }

  // --- coordinated reload --------------------------------------------------

  /// Drain barrier: once every traffic-taking replica's FIFO is empty,
  /// broadcast the front reload job. Called after every loop iteration.
  void MaybeFinishDrain() {
    if (state_ != State::kDraining || reload_jobs_.empty()) return;
    for (const Replica& replica : replicas_) {
      if (replica.sup->TakesTraffic() && !replica.fifo.empty()) return;
    }
    state_ = State::kReloading;
    ReloadJob job = std::move(reload_jobs_.front());
    reload_jobs_.pop_front();
    // Healed replicas must come back on this model, not the argv one: the
    // readmission path replays the last broadcast path before probing.
    last_reload_path_ = job.path;
    std::string line = "{\"reload\":";
    obs::internal::AppendJsonString(&line, job.path);
    line += "}";
    auto broadcast =
        MakeBroadcast("reload", job.client, job.seq, std::move(job.client_id));
    BroadcastToFleet(broadcast, line);
    // A replica mid-probation is connected but outside the aggregate (the
    // client does not wait on a half-admitted replica); it still needs the
    // new model before any probe can readmit it.
    double now = Now();
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].sup->state() == net::ReplicaHealth::kProbation) {
        SendSwallowed(i, line, now);
      }
    }
  }

  /// All reload acks are in: answer the client, then resume — dispatch every
  /// held request (they render on the new generation) and any queued reload.
  void FinishReload(const Broadcast& broadcast) {
    bool all_ok = broadcast.down.empty();
    for (const auto& [addr, reply] : broadcast.replies) {
      if (reply.find("\"reload\":\"ok\"") == std::string::npos) all_ok = false;
    }
    std::string out = "{";
    if (!broadcast.client_id.empty()) {
      out += "\"id\":";
      obs::internal::AppendJsonString(&out, broadcast.client_id);
      out += ",";
    }
    out += std::string("\"reload\":\"") + (all_ok ? "ok" : "failed") + "\"";
    out += ",\"replicas\":[";
    for (size_t i = 0; i < broadcast.replies.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"addr\":\"" + broadcast.replies[i].first +
             "\",\"reply\":" + broadcast.replies[i].second + "}";
    }
    for (const std::string& addr : broadcast.down) {
      if (out.back() != '[') out += ",";
      out += "{\"addr\":\"" + addr + "\",\"up\":false}";
    }
    out += "]}";
    Fulfill(broadcast.client, broadcast.seq, std::move(out));

    state_ = reload_jobs_.empty() ? State::kRunning : State::kDraining;
    // Held requests dispatch in arrival order. If another reload is queued
    // the fleet re-drains; these requests ride in front of it.
    std::deque<Held> held;
    held.swap(held_);
    for (Held& h : held) {
      if (clients_.count(h.client) == 0) continue;
      Dispatch(h.client, h.seq, h.raw_line, h.entity_key, h.retried);
    }
  }

  // --- probes --------------------------------------------------------------

  /// Queues one health probe on `replica_index`'s link; its reply feeds the
  /// supervisor (OnReplicaLine).
  void SendProbe(size_t replica_index, double now) {
    Replica& replica = replicas_[replica_index];
    Token token;
    token.type = TokenType::kProbe;
    token.sent_at = now;
    net::LineServer::ConnId conn = replica.conn;
    replica.fifo.push_back(std::move(token));
    server_->Send(conn, "{\"health\":true}");
  }

  /// The --probe-interval-ms tick: liveness probes for replicas in the
  /// ring. Probation replicas are probed back to back instead.
  void SendProbes(double now) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].sup->TakesTraffic()) SendProbe(i, now);
    }
  }

  // --- fleet shutdown ------------------------------------------------------

  /// SIGTERM every child, grant a short grace period, SIGKILL stragglers.
  void ShutdownFleet() {
    if (!options_.fleet) return;
    for (Replica& replica : replicas_) {
      if (replica.pid > 0) net::TerminateProcess(replica.pid, /*force=*/false);
    }
    for (int spins = 0; spins < 200; ++spins) {
      bool alive = false;
      for (Replica& replica : replicas_) {
        if (replica.pid <= 0) continue;
        if (net::ReapProcess(replica.pid, nullptr)) {
          replica.pid = -1;
        } else {
          alive = true;
        }
      }
      if (!alive) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (Replica& replica : replicas_) {
      if (replica.pid <= 0) continue;
      net::TerminateProcess(replica.pid, /*force=*/true);
      for (int spins = 0; spins < 100; ++spins) {
        if (net::ReapProcess(replica.pid, nullptr)) {
          replica.pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  text::TweetNer ner_;
  Options options_;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<net::LineServer> server_;
  std::vector<Replica> replicas_;
  std::map<net::LineServer::ConnId, size_t> replica_by_conn_;
  std::map<uint64_t, size_t> ring_;  ///< vnode hash -> replica index.
  std::map<net::LineServer::ConnId, Client> clients_;
  State state_ = State::kRunning;
  std::deque<Held> held_;
  std::deque<ReloadJob> reload_jobs_;
  std::vector<std::weak_ptr<Broadcast>> active_broadcasts_;
  std::string last_reload_path_;  ///< Last fleet-wide reload target.
  uint64_t failovers_ = 0;        ///< Predicts re-dispatched after a death.
};

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, 1);
  if (!args.ok() || args.Has("help")) return Usage();
  if (!tools::SetupObservability(args)) return 2;

  std::string replicas_flag = args.Get("replicas");
  std::string fleet_path = args.Get("fleet");
  std::string gaz_path = args.Get("gazetteer");
  if (gaz_path.empty()) return Usage();
  if (replicas_flag.empty() == fleet_path.empty()) {
    std::fprintf(stderr,
                 "edge_router: exactly one of --replicas / --fleet required\n");
    return Usage();
  }

  std::vector<edge::net::FleetReplicaSpec> specs;
  if (!fleet_path.empty()) {
    edge::Result<edge::net::FleetConfig> config =
        edge::net::LoadFleetConfig(fleet_path);
    if (!config.ok()) {
      std::fprintf(stderr, "edge_router: %s\n",
                   config.status().ToString().c_str());
      return 1;
    }
    specs = std::move(config).value().replicas;
  } else {
    size_t start = 0;
    while (start <= replicas_flag.size()) {
      size_t comma = replicas_flag.find(',', start);
      if (comma == std::string::npos) comma = replicas_flag.size();
      if (comma > start) {
        edge::net::FleetReplicaSpec spec;
        spec.addr = replicas_flag.substr(start, comma - start);
        specs.push_back(std::move(spec));
      }
      start = comma + 1;
    }
    if (specs.empty()) return Usage();
  }

  edge::Result<edge::text::Gazetteer> gazetteer = tools::LoadGazetteer(gaz_path);
  if (!gazetteer.ok()) {
    std::fprintf(stderr, "bad gazetteer: %s\n",
                 gazetteer.status().ToString().c_str());
    return 1;
  }

  Router::Options options;
  options.host = args.Get("host", "127.0.0.1");
  long listen_port = args.GetInt("listen", 0);
  if (listen_port < 0 || listen_port > 65535) {
    std::fprintf(stderr, "--listen: port out of range\n");
    return Usage();
  }
  options.port = static_cast<uint16_t>(listen_port);
  long max_line_bytes = args.GetInt(
      "max-line-bytes", static_cast<long>(edge::net::LineFramer::kDefaultMaxLineBytes));
  if (max_line_bytes < 64) {
    std::fprintf(stderr, "--max-line-bytes: must be >= 64\n");
    return Usage();
  }
  options.max_line_bytes = static_cast<size_t>(max_line_bytes);
  options.max_in_flight = static_cast<size_t>(
      args.GetInt("max-in-flight", static_cast<long>(options.max_in_flight)));
  options.spill_threshold = static_cast<size_t>(args.GetInt(
      "spill-threshold", static_cast<long>(options.spill_threshold)));
  options.vnodes =
      static_cast<size_t>(args.GetInt("vnodes", static_cast<long>(options.vnodes)));
  options.probe_interval_ms =
      args.GetDouble("probe-interval-ms", options.probe_interval_ms);
  options.connect_timeout_ms =
      args.GetDouble("connect-timeout-ms", options.connect_timeout_ms);
  if (options.connect_timeout_ms < 1) {
    std::fprintf(stderr, "--connect-timeout-ms: must be >= 1\n");
    return Usage();
  }
  options.request_timeout_ms =
      args.GetDouble("request-timeout-ms", options.request_timeout_ms);
  options.broadcast_timeout_ms =
      args.GetDouble("broadcast-timeout-ms", options.broadcast_timeout_ms);
  options.warm_keys = static_cast<size_t>(
      args.GetInt("warm-keys", static_cast<long>(options.warm_keys)));
  options.heal_seed = static_cast<uint64_t>(args.GetInt("heal-seed", 0));
  options.fleet = !fleet_path.empty();
  options.sup.backoff.base_ms = args.GetDouble("redial-base-ms", 100.0);
  options.sup.backoff.max_ms = args.GetDouble("redial-max-ms", 5000.0);
  options.sup.readmit_probes =
      static_cast<int>(args.GetInt("readmit-probes", 2));
  options.sup.flap_max_deaths =
      static_cast<int>(args.GetInt("flap-max-deaths", 5));
  options.sup.flap_window_seconds = args.GetDouble("flap-window-s", 30.0);
  options.sup.quarantine_seconds = args.GetDouble("quarantine-s", 30.0);
  if (options.sup.backoff.base_ms <= 0 || options.sup.backoff.max_ms <= 0 ||
      options.sup.readmit_probes < 1) {
    std::fprintf(stderr,
                 "--redial-base-ms/--redial-max-ms must be > 0 and "
                 "--readmit-probes >= 1\n");
    return Usage();
  }
  if (!args.ok()) return Usage();

  Router router(std::move(gazetteer).value(), options);
  edge::Status started = router.Start(specs);
  if (!started.ok()) {
    std::fprintf(stderr, "edge_router: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "edge_router: listening on %s:%u (%zu replicas%s)\n",
               options.host.c_str(), router.port(), specs.size(),
               options.fleet ? ", supervised fleet" : "");
  std::fflush(stderr);

#ifndef _WIN32
  struct sigaction stop_action = {};
  stop_action.sa_handler = HandleStop;
  sigemptyset(&stop_action.sa_mask);
  stop_action.sa_flags = 0;
  sigaction(SIGINT, &stop_action, nullptr);
  sigaction(SIGTERM, &stop_action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
#else
  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
#endif

  router.Run();
  tools::FlushObservability(args);
  return 0;
}
