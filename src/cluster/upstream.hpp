// UpstreamPool -- pooled, pipelined, keep-alive HTTP client connections for
// the cluster router, driven by one reactor thread instead of a thread per
// upstream call.
//
// forward(peer, request, done) enqueues the request and returns immediately;
// the reactor serializes it onto a per-peer keep-alive connection (opening
// one with a NONBLOCKING connect when none is free), writes via the same
// WriteQueue/iovec machinery the server uses, and parses responses
// incrementally with ResponseParser. HTTP/1.1 responses come back in request
// order, so multiple requests ride one connection pipelined: a deque of
// pending completions pairs responses to callers. Completions fire on the
// reactor thread -- they must not block (the server's Completion contract
// already satisfies this: it just posts to the owning event loop).
//
// Failure semantics: any transport error (connect refused/timeout, reset,
// EOF mid-pipeline, request deadline) fails every in-flight request on that
// connection with ok=false and marks the peer DOWN for retry_down_ms, so a
// dead node costs one timeout and subsequent requests fail fast instead of
// piling onto a black hole. A later forward after the cooldown probes again
// with a fresh connect.
//
// Thread-safety: forward()/stats()/down_peers() may be called from any
// thread; everything else (peer table, connections) is reactor-private.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.hpp"
#include "serve/poller.hpp"
#include "serve/write_queue.hpp"

namespace prm::cluster {

/// A "host:port" peer address split into its parts. host must be a numeric
/// IPv4 address (the cluster deliberately takes no DNS dependency).
struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse "host:port"; throws std::invalid_argument on a missing/invalid port
/// or empty host.
PeerAddress parse_peer(const std::string& address);

struct UpstreamOptions {
  int connect_timeout_ms = 2000;
  /// Deadline for a forwarded request's full exchange, measured from
  /// enqueue; expiry tears down the connection (pipelined order makes a
  /// single-response skip impossible).
  int request_timeout_ms = 10000;
  std::size_t max_connections_per_peer = 4;
  /// Soft pipelining target: beyond this many in-flight on every existing
  /// connection a new one is opened (up to the cap); past the cap requests
  /// keep pipelining onto the least-loaded connection.
  std::size_t max_inflight_per_connection = 32;
  int retry_down_ms = 1000;
};

struct UpstreamStats {
  std::uint64_t forwarded = 0;         ///< Responses delivered (ok=true).
  std::uint64_t failed = 0;            ///< Completions with ok=false.
  std::uint64_t connects = 0;          ///< Connections established.
  std::uint64_t connect_failures = 0;  ///< Connect refused / timed out.
  std::uint64_t pipelined = 0;         ///< Requests queued behind another in flight.
  std::size_t connections_open = 0;
  std::size_t peers_down = 0;
};

class UpstreamPool {
 public:
  /// Completion: ok=false means a transport-level failure (the response is
  /// default-constructed); HTTP error statuses arrive with ok=true.
  using Callback = std::function<void(bool ok, serve::http::Response response)>;

  explicit UpstreamPool(UpstreamOptions options = {});
  ~UpstreamPool();

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// Spawn the reactor thread. Idempotent.
  void start();

  /// Stop the reactor, close every connection, and fail everything pending.
  void stop();

  /// Queue one request for `peer` ("host:port"). Never blocks; `done` fires
  /// exactly once, possibly before this returns (bad address / stopped pool).
  void forward(const std::string& peer, serve::http::Request request, Callback done);

  UpstreamStats stats() const;

  /// Peers currently in their DOWN cooldown window, sorted.
  std::vector<std::string> down_peers() const;

  const UpstreamOptions& options() const noexcept { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    serve::http::Request request;
    Callback done;
  };

  struct Peer;

  struct Conn {
    int fd = -1;
    bool connected = false;
    bool want_write = false;  ///< Current poller write interest.
    serve::WriteQueue out;
    /// In-flight completions in request order; front pairs with the next
    /// parsed response. `enqueued` of the front drives the request deadline.
    std::deque<std::pair<Callback, Clock::time_point>> inflight;
    serve::http::ResponseParser parser;
    Clock::time_point connect_deadline{};
    Peer* peer = nullptr;
  };

  struct Peer {
    std::string address;  ///< "host:port" as given to forward().
    PeerAddress parsed;
    std::vector<std::unique_ptr<Conn>> conns;
    Clock::time_point down_until{};  ///< Epoch (default) = up.
  };

  void reactor_main();
  void drain_submissions();
  void dispatch(Peer& peer, Pending pending);
  Conn* pick_connection(Peer& peer);
  Conn* open_connection(Peer& peer);
  void flush(Conn& conn);
  void on_readable(Conn& conn);
  void set_write_interest(Conn& conn, bool want);
  /// Tear down the connection, failing every in-flight request and marking
  /// the peer down.
  void fail_connection(Conn& conn, const char* reason);
  void mark_down(Peer& peer);
  void check_deadlines();
  int wait_timeout_ms() const;
  void complete(Callback& done, bool ok, serve::http::Response response);

  UpstreamOptions options_;

  /// Lives as long as the pool, so forward() may wake() it while a stop()
  /// runs: the eventfd is never closed under a racing write.
  serve::Poller poller_;

  std::mutex submit_m_;
  std::vector<std::pair<std::string, Pending>> submissions_;
  bool stopping_ = false;  ///< Guarded by submit_m_.

  std::map<std::string, std::unique_ptr<Peer>> peers_;  ///< Reactor-private.
  std::map<int, Conn*> by_fd_;                          ///< Reactor-private.

  mutable std::mutex down_m_;
  std::set<std::string> down_mirror_;  ///< Cross-thread view of DOWN peers.

  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> connect_failures_{0};
  std::atomic<std::uint64_t> pipelined_{0};
  std::atomic<std::size_t> connections_open_{0};

  std::atomic<bool> running_{false};
  std::thread reactor_;
};

}  // namespace prm::cluster
