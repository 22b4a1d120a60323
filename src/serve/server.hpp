// Event-driven HTTP server over Linux sockets: a small number of event-loop
// threads run nonblocking accept + epoll readiness polling and do all socket
// I/O, while a fixed pool of worker threads runs the CPU-bound handlers.
//
// Reactor split: each event loop owns a Poller (epoll plus its wakeup
// eventfd), a timer wheel for idle/header deadlines, a BufferPool, a
// listening socket, and a slab of Connection objects keyed by fd (resumable
// RequestParser, WriteQueue, generation tag). With more than one loop every
// loop binds its own SO_REUSEPORT listener and accepts its own connections
// -- the kernel shards new flows across the sockets by hash, so there is no
// accept bottleneck and no cross-loop fd hand-off. When a connection's
// parser completes a request, the loop hands {request, fd, generation} to
// the per-worker bounded deques; the worker runs the handler, serializes
// the response head, and posts {head, body} back to the owning loop, which
// queues them as iovecs and writes with one sendmsg (vectored, partial-write
// cursor resume, EPOLLOUT re-arming). Keep-alive and pipelining fall out of
// the resumable parser: after a response is flushed the loop re-arms the
// parser, and a pipelined request already in the buffer dispatches
// immediately. One request per connection is in flight at a time, so
// pipelined responses always come back in order; a pipelined burst handled
// on the inline fast path coalesces its responses into a single sendmsg.
//
// Inline fast path: when every worker queue is empty and the EMA of recent
// handler+serialize times is small, the loop runs the handler itself and
// skips the two context switches of the hand-off -- the win that keeps
// low-concurrency throughput at thread-per-connection levels. The EMA starts
// "unset" so slow or parked handlers are only ever discovered on the worker
// pool, never by blocking an event loop.
//
// Backpressure: the total budget `max_pending` is split evenly across the
// per-worker job queues (each gets at least one slot). A completed request
// is offered to every queue before being declared overload; only when all
// queues are full does the loop answer with a canned 503 + Retry-After and
// close -- the same shed-at-the-door contract the thread-per-connection
// server had, now applied at the parsed-request hand-off.
//
// Timeouts: a connection idle between requests is closed silently at
// idle_timeout_ms. Once the first byte of a request arrives the deadline is
// *fixed* at first-byte + idle_timeout_ms until the request completes, so a
// slowloris client trickling header bytes cannot hold a slot by resetting
// an activity timer; expiry mid-request answers 408 and counts in
// `timeouts`. Deadlines live in a per-loop hashed timer wheel.
//
// Observability: request counts by status class, total/in-flight connection
// gauges, open connections per loop, a fixed-bucket latency histogram
// (handler + serialize time), per-worker queue depths, parser-error /
// timeout / overload-rejection counters -- exported by the /metrics route in
// serve::App but owned here so any handler can serve them.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/buffer_pool.hpp"
#include "serve/http.hpp"
#include "serve/poller.hpp"
#include "serve/write_queue.hpp"

namespace prm::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = pick an ephemeral port (see Server::port()).
  std::size_t threads = 4;       ///< Worker pool size (>= 1 enforced).
  std::size_t event_threads = 2; ///< Readiness-loop count (>= 1 enforced).
  std::size_t max_pending = 64;  ///< Total bounded queue budget; beyond it -> 503.
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  int idle_timeout_ms = 10000;   ///< Idle cutoff AND per-request header/body deadline.
};

/// Upper edges (inclusive) of the latency histogram buckets, microseconds;
/// the last bucket is unbounded.
inline constexpr std::array<std::uint64_t, 7> kLatencyBucketEdgesUs = {
    100, 1000, 5000, 25000, 100000, 500000, 2000000};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< 503 overload sheds.
  std::uint64_t requests_total = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t timeouts = 0;           ///< Mid-request deadline expiries (408).
  std::size_t queue_depth = 0;          ///< Requests waiting, summed over workers.
  std::vector<std::size_t> queue_depths;  ///< Per-worker waiting requests.
  std::vector<std::size_t> loop_connections;  ///< Open connections per event loop.
  std::size_t threads = 0;
  std::size_t event_threads = 0;
  std::array<std::uint64_t, kLatencyBucketEdgesUs.size() + 1> latency_buckets{};

  std::uint64_t writev_calls = 0;    ///< sendmsg(2) flushes issued.
  std::uint64_t writev_batches = 0;  ///< Flushes that coalesced >1 response.
  std::vector<std::uint64_t> loop_accepts;  ///< Connections landed per loop.
  BufferPoolStats buffer_pool;       ///< Summed over the per-loop pools.
};

class Server {
 public:
  /// Synchronous handler form: runs on a worker thread, must be thread-safe;
  /// exceptions become 500 responses.
  using Handler = std::function<http::Response(const http::Request&)>;

  /// Completion callback handed to an AsyncHandler; invoke exactly once with
  /// the response. Thread-safe: may be called from any thread, immediately
  /// or later (the response is routed back to the connection's event loop).
  using Completion = std::function<void(http::Response)>;

  /// Asynchronous handler form: invoked on a worker thread with the parsed
  /// request and a completion callback. The request reference is only valid
  /// for the duration of the call -- copy what outlives it. An exception
  /// escaping before `done` is invoked becomes a 500.
  using AsyncHandler = std::function<void(const http::Request&, Completion)>;

  Server(ServerOptions options, Handler handler);
  Server(ServerOptions options, AsyncHandler handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn event loops and workers. With more than one event
  /// loop every loop binds its own SO_REUSEPORT listener. Throws
  /// std::runtime_error when any listener cannot be bound. Idempotent once
  /// running.
  void start();

  /// Stop accepting, drain workers, close every connection. Safe to call
  /// multiple times; the destructor calls it too.
  void stop();

  bool running() const noexcept { return running_.load(); }

  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const noexcept { return port_.load(); }

  ServerStats stats() const;

 private:
  struct Connection;
  struct EventLoop;

  /// A parsed request in flight from an event loop to a worker.
  struct Job {
    std::size_t loop_index = 0;
    int fd = -1;
    std::uint64_t generation = 0;
    http::Request request;
    bool keep_alive = false;
  };

  /// A rendered response on its way back from a worker to an event loop.
  /// head/body/body_ref mirror OutChunk: the loop queues them for a
  /// vectored write without re-concatenating (a shared cache body crosses
  /// as a refcount bump, never a copy).
  struct CompletionMsg {
    int fd = -1;
    std::uint64_t generation = 0;
    std::string head;
    std::string body;
    std::shared_ptr<const std::string> body_ref;
    bool keep_alive = false;
  };

  /// One worker's private job queue. Heap-allocated via unique_ptr so the
  /// vector of queues is constructible despite the mutex member.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Job> pending;
    std::size_t capacity = 1;
  };

  void event_loop_run(EventLoop& loop);
  void drain_inbox(EventLoop& loop);
  void accept_ready(EventLoop& loop);
  void adopt_connection(EventLoop& loop, int fd);
  void handle_io(EventLoop& loop, const PollerEvent& event);
  void read_some(EventLoop& loop, Connection& connection);
  void process(EventLoop& loop, Connection& connection);
  void run_inline(EventLoop& loop, Connection& connection);
  bool inline_eligible() const;
  void update_handler_ema(std::uint64_t micros);
  void flush(EventLoop& loop, Connection& connection, bool reenter_process = true);
  void respond_and_close(EventLoop& loop, Connection& connection, OutChunk chunk);
  void apply_completion(EventLoop& loop, CompletionMsg& completion);
  void expire_deadlines(EventLoop& loop);
  void close_connection(EventLoop& loop, Connection& connection);
  void set_read_interest(EventLoop& loop, Connection& connection, bool want);
  void post_completion(std::size_t loop_index, CompletionMsg completion);
  void wake(EventLoop& loop);

  void worker_loop(std::size_t worker_index);
  void execute_job(Job& job);
  bool push_job(Job&& job);
  bool try_pop(std::size_t queue_index, Job& job);
  bool pop_job(std::size_t worker_index, Job& job);
  void record_latency(std::uint64_t micros);
  void record_status(int status);

  ServerOptions options_;
  AsyncHandler handler_;

  /// Create + bind + listen one nonblocking socket on options_.bind_address,
  /// with SO_REUSEPORT set before bind when `with_reuseport`. Throws
  /// std::runtime_error on failure.
  int make_listen_socket(std::uint16_t port, bool with_reuseport);

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> loops_exit_{false};
  std::atomic<std::uint16_t> port_{0};

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::uint64_t> generation_counter_{0};

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  ///< One per worker.
  std::atomic<std::size_t> next_queue_{0};  ///< Round-robin cursor (any loop thread).
  std::atomic<std::size_t> jobs_queued_{0};  ///< Jobs waiting, summed over queues.
  /// Idle workers wait on idle_cv_ for `stopping_ || jobs_queued_ > 0`.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  /// EMA of handler+serialize micros, gating the inline fast path. Starts at
  /// "unset" (= never inline) so parked/slow handlers are discovered on the
  /// worker pool, not by blocking an event loop.
  std::atomic<std::uint64_t> handler_ema_us_{~std::uint64_t{0}};

  // Counters are independent atomics: relaxed updates, snapshot on stats().
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_2xx_{0};
  std::atomic<std::uint64_t> responses_4xx_{0};
  std::atomic<std::uint64_t> responses_5xx_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> writev_batches_{0};
  std::array<std::atomic<std::uint64_t>, kLatencyBucketEdgesUs.size() + 1>
      latency_buckets_{};
};

}  // namespace prm::serve
