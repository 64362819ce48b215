#include "edge/net/line_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "edge/common/check.h"
#include "edge/net/socket_util.h"

namespace edge::net {

namespace {

/// Pseudo connection ids for the two non-connection pollfd slots; real ids
/// count up from 1.
constexpr LineServer::ConnId kListenSlot = 0;
constexpr LineServer::ConnId kWakeSlot = ~LineServer::ConnId{0};

}  // namespace

Result<std::unique_ptr<Waker>> Waker::Create() {
  int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  return std::unique_ptr<Waker>(new Waker(fd));
}

Waker::~Waker() { CloseFd(fd_); }

void Waker::Wake() const {
  // Adds 1 to the eventfd counter. The only failure on a non-blocking
  // eventfd is EAGAIN at a saturated counter, which is still a pending wake.
  const uint64_t one = 1;
  ssize_t n = ::write(fd_, &one, sizeof(one));
  (void)n;
}

void Waker::Drain() const {
  // One read returns and zeroes the whole counter (EAGAIN when already 0).
  uint64_t count = 0;
  ssize_t n = ::read(fd_, &count, sizeof(count));
  (void)n;
}

Result<std::unique_ptr<LineServer>> LineServer::Listen(const Options& options,
                                                       Callbacks callbacks) {
  if (!callbacks.on_line) {
    return Status::InvalidArgument("LineServer needs an on_line callback");
  }
  if (options.write_low_watermark > options.write_high_watermark) {
    return Status::InvalidArgument("write_low_watermark above high watermark");
  }
  uint16_t bound = 0;
  Result<int> fd = ListenTcp(options.host, options.port, &bound);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<LineServer>(
      new LineServer(fd.value(), bound, options, std::move(callbacks)));
}

LineServer::LineServer(int listen_fd, uint16_t port, const Options& options,
                       Callbacks callbacks)
    : listen_fd_(listen_fd),
      port_(port),
      options_(options),
      callbacks_(std::move(callbacks)) {}

LineServer::~LineServer() {
  for (auto& [id, conn] : conns_) CloseFd(conn.fd);
  CloseFd(listen_fd_);
}

LineServer::ConnId LineServer::Adopt(int fd, size_t max_line_bytes) {
  ConnId id = next_id_++;
  conns_.emplace(id, Conn(fd, max_line_bytes > 0 ? max_line_bytes
                                                 : options_.max_line_bytes));
  return id;
}

bool LineServer::Send(ConnId id, std::string_view line) {
  auto it = conns_.find(id);
  if (it == conns_.end() || it->second.closing) return false;
  Conn& conn = it->second;
  conn.out.append(line);
  conn.out.push_back('\n');
  // Opportunistic flush: when the loop is otherwise idle this saves a full
  // poll round-trip of response latency.
  FlushWrites(id);
  return true;
}

void LineServer::PauseReading(ConnId id) {
  auto it = conns_.find(id);
  if (it != conns_.end()) it->second.manual_paused = true;
}

void LineServer::ResumeReading(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end() || !it->second.manual_paused) return;
  it->second.manual_paused = false;
  // Lines framed while paused are delivered now, not at the next read.
  DispatchFrames(id);
}

void LineServer::Close(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  it->second.closing = true;
  if (it->second.out_head >= it->second.out.size()) {
    Teardown(id);
  } else {
    FlushWrites(id);
  }
}

void LineServer::CloseNow(ConnId id) {
  if (conns_.count(id) > 0) Teardown(id);
}

size_t LineServer::write_buffered(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.out.size() - it->second.out_head;
}

void LineServer::StopAccepting() {
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
}

bool LineServer::idle() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.out_head < conn.out.size()) return false;
  }
  return true;
}

void LineServer::RunOnce(int timeout_ms) {
  // Snapshot ids alongside the pollfd set: callbacks may open/close
  // connections mid-dispatch, so every access below re-finds by id.
  std::vector<pollfd> fds;
  std::vector<ConnId> ids;
  fds.reserve(conns_.size() + 2);
  ids.reserve(conns_.size() + 2);
  if (listen_fd_ >= 0) {
    fds.push_back({listen_fd_, POLLIN, 0});
    ids.push_back(kListenSlot);
  }
  if (options_.waker != nullptr) {
    fds.push_back({options_.waker->fd(), POLLIN, 0});
    ids.push_back(kWakeSlot);
  }
  for (const auto& [id, conn] : conns_) {
    short events = 0;
    if (read_enabled(conn)) events |= POLLIN;
    if (conn.out_head < conn.out.size()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    ids.push_back(id);
  }

  int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return;  // Timeout or EINTR (signal flags get checked by the caller).

  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (ids[i] == kListenSlot) {
      AcceptPending();
      continue;
    }
    if (ids[i] == kWakeSlot) {
      // Drained before the caller looks for the work it announced, so a
      // Wake() racing that look is kept for the next RunOnce.
      options_.waker->Drain();
      continue;
    }
    ConnId id = ids[i];
    if (conns_.count(id) == 0) continue;  // A callback closed it already.
    if (fds[i].revents & (POLLERR | POLLNVAL)) {
      Teardown(id);
      continue;
    }
    if (fds[i].revents & POLLOUT) FlushWrites(id);
    if (conns_.count(id) == 0) continue;
    if (fds[i].revents & (POLLIN | POLLHUP)) HandleReadable(id);
  }
}

void LineServer::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try again next poll.
    }
    if (conns_.size() >= options_.max_connections) {
      CloseFd(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      CloseFd(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ConnId id = next_id_++;
    conns_.emplace(id, Conn(fd, options_.max_line_bytes));
    if (callbacks_.on_open) callbacks_.on_open(id);
  }
}

void LineServer::HandleReadable(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  char buf[64 << 10];
  for (;;) {
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.framer.Append(buf, static_cast<size_t>(n));
      // Cap one connection's share of a RunOnce: dispatch what arrived, let
      // poll() fairness interleave the rest with other connections.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn.rd_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Teardown(id);  // ECONNRESET and friends.
    return;
  }
  DispatchFrames(id);
}

void LineServer::DispatchFrames(ConnId id) {
  for (;;) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // A callback closed the connection.
    Conn& conn = it->second;
    // Caller-paused or write-backpressured connections keep their framed
    // lines buffered: delivery resumes from ResumeReading / the next drain.
    if (conn.manual_paused || conn.auto_paused || conn.closing) return;
    std::string line;
    LineFramer::Event event = conn.framer.Next(&line);
    if (event == LineFramer::Event::kLine) {
      callbacks_.on_line(id, std::move(line));
      continue;
    }
    if (event == LineFramer::Event::kOversized) {
      if (callbacks_.on_oversized) callbacks_.on_oversized(id);
      continue;
    }
    break;  // kNeedMore.
  }
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.rd_eof && !conn.eof_notified && conn.framer.buffered() == 0) {
    conn.eof_notified = true;
    if (callbacks_.on_eof) {
      callbacks_.on_eof(id);
    } else {
      Close(id);
    }
  }
}

void LineServer::FlushWrites(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (conn.out_head < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_head,
                       conn.out.size() - conn.out_head, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_head += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Teardown(id);
    return;
  }
  if (conn.out_head >= conn.out.size()) {
    conn.out.clear();
    conn.out_head = 0;
    if (conn.closing) {
      Teardown(id);
      return;
    }
  } else if (conn.out_head > (1u << 20)) {
    conn.out.erase(0, conn.out_head);
    conn.out_head = 0;
  }

  // Write-side backpressure drives read-side throttling.
  const size_t buffered = conn.out.size() - conn.out_head;
  if (!conn.auto_paused && buffered > options_.write_high_watermark) {
    conn.auto_paused = true;
  } else if (conn.auto_paused && buffered <= options_.write_low_watermark) {
    conn.auto_paused = false;
    DispatchFrames(id);
  }
}

void LineServer::Teardown(ConnId id) {
  auto it = conns_.find(id);
  EDGE_CHECK(it != conns_.end());
  CloseFd(it->second.fd);
  conns_.erase(it);
  if (callbacks_.on_close) callbacks_.on_close(id);
}

}  // namespace edge::net
