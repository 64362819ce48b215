#ifndef EDGE_NET_LINE_SERVER_H_
#define EDGE_NET_LINE_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "edge/common/status.h"
#include "edge/net/line_framer.h"

/// \file
/// Single-threaded poll() event loop speaking newline-delimited text over
/// many concurrent TCP connections — the socket front-end of the serving
/// tier (DESIGN.md §16).
///
/// The loop owns accept, per-connection LineFramer re-framing (partial
/// lines across reads, CRLF tolerance, oversized-line rejection) and
/// buffered non-blocking writes with backpressure: a connection whose
/// outbound buffer crosses `write_high_watermark` stops being read until
/// the peer drains it below `write_low_watermark`, so one slow consumer
/// can neither balloon server memory nor stall the other connections.
/// Callers can additionally pause reading per connection (admission
/// backpressure) — already-framed lines are then held undelivered until
/// ResumeReading.
///
/// Everything runs on the caller's thread inside RunOnce(): callbacks may
/// freely Send/Pause/Close any connection. The loop never blocks on a
/// peer; RunOnce blocks in poll() until a socket is ready, the optional
/// Waker fires, or `timeout_ms` passes.

namespace edge::net {

/// Cross-thread wake-up for a poll() loop, backed by a Linux eventfd. Any
/// thread — or a signal handler — calls Wake(); the loop polls fd() for
/// POLLIN and calls Drain(). Wakes coalesce, and a Wake() that lands before
/// the loop polls stays pending until drained, so none is lost.
class Waker {
 public:
  static Result<std::unique_ptr<Waker>> Create();
  ~Waker();

  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// Thread-safe and async-signal-safe (one write()).
  void Wake() const;
  /// Clears every pending wake; call from the loop thread after poll().
  void Drain() const;
  int fd() const { return fd_; }

 private:
  explicit Waker(int fd) : fd_(fd) {}
  int fd_;
};

class LineServer {
 public:
  using ConnId = uint64_t;

  struct Options {
    /// Listen address; "" binds INADDR_ANY.
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; see port() for the bound one.
    uint16_t port = 0;
    size_t max_line_bytes = LineFramer::kDefaultMaxLineBytes;
    /// Outbound-buffer watermarks driving per-connection read backpressure.
    size_t write_high_watermark = 4u << 20;
    size_t write_low_watermark = 256u << 10;
    /// Accepted connections beyond this are closed immediately.
    size_t max_connections = 1024;
    /// Polled beside the sockets: a Wake() from another thread ends the
    /// current (or next) RunOnce early. Not owned; must outlive the server.
    const Waker* waker = nullptr;
  };

  struct Callbacks {
    /// A connection was accepted (not fired for Adopt()ed descriptors).
    std::function<void(ConnId)> on_open;
    /// One complete line (terminator stripped). Required.
    std::function<void(ConnId, std::string&&)> on_line;
    /// The next line exceeded max_line_bytes and was discarded; the callee
    /// usually Send()s a structured error so the one-answer-per-line
    /// contract survives.
    std::function<void(ConnId)> on_oversized;
    /// Peer half-closed its write side; every buffered line has already been
    /// delivered. Typical reaction: finish in-flight work, then Close(id).
    /// When unset the server Close()s the connection itself.
    std::function<void(ConnId)> on_eof;
    /// The connection is gone (peer reset, write error, or a Close that
    /// finished flushing). The id is dead after this returns.
    std::function<void(ConnId)> on_close;
  };

  /// Binds and listens; no traffic flows until RunOnce() is called.
  static Result<std::unique_ptr<LineServer>> Listen(const Options& options,
                                                    Callbacks callbacks);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// The bound listen port (== options.port unless that was 0).
  uint16_t port() const { return port_; }

  /// Adds an already-connected non-blocking descriptor (an outbound dial,
  /// e.g. a router's replica link) to the loop. It gets the same framing
  /// and backpressure treatment as an accepted connection. A nonzero
  /// `max_line_bytes` overrides the server-wide cap for this connection
  /// (replica replies dwarf client requests).
  ConnId Adopt(int fd, size_t max_line_bytes = 0);

  /// Queues `line` + '\n' for delivery; returns false if the id is dead.
  bool Send(ConnId id, std::string_view line);

  /// Caller-driven read backpressure (e.g. per-connection in-flight caps).
  void PauseReading(ConnId id);
  /// Re-enables reading and delivers any lines framed while paused.
  void ResumeReading(ConnId id);

  /// Graceful close: pending writes flush first, then on_close fires.
  void Close(ConnId id);
  /// Immediate teardown (pending writes are dropped).
  void CloseNow(ConnId id);

  bool IsOpen(ConnId id) const { return conns_.count(id) > 0; }
  size_t write_buffered(ConnId id) const;
  size_t connection_count() const { return conns_.size(); }

  /// Stops accepting new connections (drain mode); existing ones live on.
  void StopAccepting();

  /// True when no connection has pending outbound bytes.
  bool idle() const;

  /// One poll() iteration: accepts, reads/frames/dispatches, flushes writes,
  /// drains the waker. Blocks at most timeout_ms (-1 = until an event).
  void RunOnce(int timeout_ms);

 private:
  struct Conn {
    int fd = -1;
    LineFramer framer;
    std::string out;        ///< Pending outbound bytes.
    size_t out_head = 0;    ///< Consumed prefix of `out`.
    bool manual_paused = false;
    bool auto_paused = false;  ///< Outbound buffer above the high watermark.
    bool rd_eof = false;
    bool eof_notified = false;
    bool closing = false;  ///< Close() requested: flush, then tear down.
    Conn(int fd_in, size_t max_line) : fd(fd_in), framer(max_line) {}
  };

  LineServer(int listen_fd, uint16_t port, const Options& options,
             Callbacks callbacks);

  bool read_enabled(const Conn& conn) const {
    return !conn.manual_paused && !conn.auto_paused && !conn.rd_eof &&
           !conn.closing;
  }
  void AcceptPending();
  /// Reads until EAGAIN/EOF and dispatches framed lines.
  void HandleReadable(ConnId id);
  /// Delivers framed lines while reading stays enabled; fires on_eof when
  /// the stream is exhausted after a peer half-close.
  void DispatchFrames(ConnId id);
  /// Writes until EAGAIN; completes a graceful Close; updates auto pause.
  void FlushWrites(ConnId id);
  void Teardown(ConnId id);

  int listen_fd_;
  uint16_t port_;
  Options options_;
  Callbacks callbacks_;
  ConnId next_id_ = 1;
  std::map<ConnId, Conn> conns_;
};

}  // namespace edge::net

#endif  // EDGE_NET_LINE_SERVER_H_
