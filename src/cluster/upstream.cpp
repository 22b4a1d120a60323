#include "cluster/upstream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace prm::cluster {

namespace http = serve::http;

PeerAddress parse_peer(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("cluster: peer '" + address +
                                "' is not host:port");
  }
  PeerAddress parsed;
  parsed.host = address.substr(0, colon);
  const std::string_view port_text = std::string_view(address).substr(colon + 1);
  unsigned port = 0;
  const auto [end, ec] =
      std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc() || end != port_text.data() + port_text.size() ||
      port == 0 || port > 65535) {
    throw std::invalid_argument("cluster: peer '" + address + "' has a bad port");
  }
  parsed.port = static_cast<std::uint16_t>(port);
  return parsed;
}

UpstreamPool::UpstreamPool(UpstreamOptions options) : options_(options) {}

UpstreamPool::~UpstreamPool() { stop(); }

void UpstreamPool::start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(submit_m_);
    stopping_ = false;
  }
  reactor_ = std::thread([this] { reactor_main(); });
}

void UpstreamPool::stop() {
  if (!running_.load()) return;
  {
    std::lock_guard<std::mutex> lock(submit_m_);
    stopping_ = true;
  }
  poller_.wake();
  if (reactor_.joinable()) reactor_.join();

  // Reactor has exited: everything left is reactor-private now.
  for (auto& [address, peer] : peers_) {
    for (auto& conn : peer->conns) {
      for (auto& [done, enqueued] : conn->inflight) complete(done, false, {});
      poller_.remove(conn->fd);
      ::close(conn->fd);
      connections_open_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  peers_.clear();
  by_fd_.clear();
  std::vector<std::pair<std::string, Pending>> leftovers;
  {
    std::lock_guard<std::mutex> lock(submit_m_);
    leftovers.swap(submissions_);
  }
  for (auto& [address, pending] : leftovers) complete(pending.done, false, {});
  running_.store(false);
}

void UpstreamPool::forward(const std::string& peer, http::Request request,
                           Callback done) {
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(submit_m_);
    if (running_.load() && !stopping_) {
      submissions_.emplace_back(peer, Pending{std::move(request), std::move(done)});
      accepted = true;
    }
  }
  if (accepted) {
    poller_.wake();
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
    done(false, {});
  }
}

UpstreamStats UpstreamPool::stats() const {
  UpstreamStats s;
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.connects = connects_.load(std::memory_order_relaxed);
  s.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  s.pipelined = pipelined_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(down_m_);
    s.peers_down = down_mirror_.size();
  }
  return s;
}

std::vector<std::string> UpstreamPool::down_peers() const {
  std::lock_guard<std::mutex> lock(down_m_);
  return {down_mirror_.begin(), down_mirror_.end()};
}

void UpstreamPool::complete(Callback& done, bool ok, http::Response response) {
  (ok ? forwarded_ : failed_).fetch_add(1, std::memory_order_relaxed);
  if (done) done(ok, std::move(response));
  done = nullptr;
}

int UpstreamPool::wait_timeout_ms() const {
  // Deadlines (connects in flight, oldest pipelined request) are scanned by
  // check_deadlines(); a coarse tick is plenty at this fan-out. Idle with no
  // connections at all, sleep until woken.
  for (const auto& [address, peer] : peers_) {
    for (const auto& conn : peer->conns) {
      if (!conn->connected || !conn->inflight.empty()) return 25;
    }
  }
  return 1000;
}

void UpstreamPool::reactor_main() {
  std::vector<serve::PollerEvent> events;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(submit_m_);
      if (stopping_) return;
    }
    drain_submissions();
    check_deadlines();
    poller_.wait(events, wait_timeout_ms());
    for (const serve::PollerEvent& event : events) {
      const auto it = by_fd_.find(event.fd);
      if (it == by_fd_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if (event.error) {
        fail_connection(conn, "socket error");
        continue;
      }
      if (event.writable) {
        if (!conn.connected) {
          int soerr = 0;
          socklen_t len = sizeof soerr;
          ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
          if (soerr != 0) {
            connect_failures_.fetch_add(1, std::memory_order_relaxed);
            fail_connection(conn, "connect failed");
            continue;
          }
          conn.connected = true;
          connects_.fetch_add(1, std::memory_order_relaxed);
          poller_.modify(conn.fd, /*want_read=*/true, /*want_write=*/false);
          conn.want_write = false;
        }
        flush(conn);
        if (by_fd_.find(event.fd) == by_fd_.end()) continue;  // flush failed it
      }
      if (event.readable) on_readable(conn);
    }
  }
}

void UpstreamPool::drain_submissions() {
  std::vector<std::pair<std::string, Pending>> batch;
  {
    std::lock_guard<std::mutex> lock(submit_m_);
    batch.swap(submissions_);
  }
  for (auto& [address, pending] : batch) {
    auto it = peers_.find(address);
    if (it == peers_.end()) {
      auto peer = std::make_unique<Peer>();
      peer->address = address;
      try {
        peer->parsed = parse_peer(address);
      } catch (const std::invalid_argument&) {
        complete(pending.done, false, {});
        continue;
      }
      it = peers_.emplace(address, std::move(peer)).first;
    }
    dispatch(*it->second, std::move(pending));
  }
}

void UpstreamPool::dispatch(Peer& peer, Pending pending) {
  const auto now = Clock::now();
  if (peer.down_until != Clock::time_point{} && now < peer.down_until &&
      peer.conns.empty()) {
    complete(pending.done, false, {});  // fail fast inside the cooldown window
    return;
  }
  Conn* conn = pick_connection(peer);
  if (conn == nullptr) conn = open_connection(peer);
  if (conn == nullptr) {
    complete(pending.done, false, {});
    return;
  }
  if (!conn->inflight.empty()) pipelined_.fetch_add(1, std::memory_order_relaxed);
  // The request goes on the wire as one head chunk (serialize() appends the
  // body bytes); WriteQueue batches a pipelined burst into one sendmsg.
  serve::OutChunk chunk;
  chunk.head = http::serialize(pending.request, peer.address);
  conn->out.push(std::move(chunk));
  conn->inflight.emplace_back(std::move(pending.done), now);
  if (conn->connected) flush(*conn);
}

UpstreamPool::Conn* UpstreamPool::pick_connection(Peer& peer) {
  Conn* best = nullptr;
  for (const auto& conn : peer.conns) {
    if (best == nullptr || conn->inflight.size() < best->inflight.size()) {
      best = conn.get();
    }
  }
  if (best != nullptr && best->inflight.size() >= options_.max_inflight_per_connection &&
      peer.conns.size() < options_.max_connections_per_peer) {
    return nullptr;  // everything saturated and there is room: open another
  }
  return best;
}

UpstreamPool::Conn* UpstreamPool::open_connection(Peer& peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.parsed.port);
  if (::inet_pton(AF_INET, peer.parsed.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    mark_down(peer);
    return nullptr;
  }

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = &peer;
  conn->connect_deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
  if (rc == 0) {
    conn->connected = true;
    connects_.fetch_add(1, std::memory_order_relaxed);
    poller_.add(fd, /*want_read=*/true, /*want_write=*/false);
  } else {
    // EINPROGRESS: EPOLLOUT signals the handshake result (SO_ERROR tells
    // which); queued requests flush right after.
    poller_.add(fd, /*want_read=*/false, /*want_write=*/true);
    conn->want_write = true;
  }
  connections_open_.fetch_add(1, std::memory_order_relaxed);
  Conn* raw = conn.get();
  by_fd_.emplace(fd, raw);
  peer.conns.push_back(std::move(conn));
  return raw;
}

void UpstreamPool::set_write_interest(Conn& conn, bool want) {
  if (conn.want_write == want) return;
  conn.want_write = want;
  poller_.modify(conn.fd, /*want_read=*/true, /*want_write=*/want);
}

void UpstreamPool::flush(Conn& conn) {
  while (!conn.out.empty()) {
    iovec iov[64];
    const std::size_t count = conn.out.build_iov(iov, 64);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_connection(conn, "send failed");
      return;
    }
    conn.out.advance(static_cast<std::size_t>(n), [](serve::OutChunk&&) {});
  }
  set_write_interest(conn, !conn.out.empty());
}

void UpstreamPool::on_readable(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_connection(conn, "recv failed");
      return;
    }
    if (n == 0) {
      // EOF. Clean only when nothing is in flight and no partial message.
      fail_connection(conn, "peer closed");
      return;
    }
    conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    bool close_after = false;
    while (conn.parser.done()) {
      http::Response response = conn.parser.release_response();
      conn.parser.next();
      if (conn.inflight.empty()) {
        fail_connection(conn, "unsolicited response");
        return;
      }
      const auto it = response.headers.find("connection");
      close_after = it != response.headers.end() && it->second == "close";
      auto [done, enqueued] = std::move(conn.inflight.front());
      conn.inflight.pop_front();
      // A response means the peer is alive; clear any stale DOWN mark.
      if (conn.peer->down_until != Clock::time_point{}) {
        conn.peer->down_until = {};
        std::lock_guard<std::mutex> lock(down_m_);
        down_mirror_.erase(conn.peer->address);
      }
      complete(done, true, std::move(response));
    }
    if (conn.parser.failed()) {
      fail_connection(conn, "parse error");
      return;
    }
    if (close_after) {
      fail_connection(conn, "connection: close");
      return;
    }
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
}

void UpstreamPool::mark_down(Peer& peer) {
  peer.down_until =
      Clock::now() + std::chrono::milliseconds(options_.retry_down_ms);
  std::lock_guard<std::mutex> lock(down_m_);
  down_mirror_.insert(peer.address);
}

void UpstreamPool::fail_connection(Conn& conn, const char* /*reason*/) {
  Peer& peer = *conn.peer;
  // Any transport failure with work in flight marks the peer down; a clean
  // idle close (keep-alive expiry on the peer side) does not.
  if (!conn.inflight.empty()) mark_down(peer);
  for (auto& [done, enqueued] : conn.inflight) complete(done, false, {});
  conn.inflight.clear();
  poller_.remove(conn.fd);
  ::close(conn.fd);
  by_fd_.erase(conn.fd);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  const auto it = std::find_if(peer.conns.begin(), peer.conns.end(),
                               [&](const auto& c) { return c.get() == &conn; });
  if (it != peer.conns.end()) peer.conns.erase(it);
}

void UpstreamPool::check_deadlines() {
  const auto now = Clock::now();
  const auto request_budget = std::chrono::milliseconds(options_.request_timeout_ms);
  // fail_connection mutates peer.conns; collect first, then act.
  std::vector<Conn*> expired;
  for (const auto& [address, peer] : peers_) {
    for (const auto& conn : peer->conns) {
      if (!conn->connected && now > conn->connect_deadline) {
        connect_failures_.fetch_add(1, std::memory_order_relaxed);
        expired.push_back(conn.get());
      } else if (!conn->inflight.empty() &&
                 now > conn->inflight.front().second + request_budget) {
        expired.push_back(conn.get());
      }
    }
  }
  for (Conn* conn : expired) fail_connection(*conn, "deadline");
}

}  // namespace prm::cluster
