#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "serve/json.hpp"
#include "serve/timer_wheel.hpp"

namespace prm::serve {

namespace {

/// Read-ahead cap while a request is executing: pipelined bytes beyond this
/// stay in the kernel until the response is written (read interest is
/// dropped), bounding per-connection memory against a flooding client.
constexpr std::size_t kPipelineReadAheadBytes = 64 * 1024;

/// Inline-burst coalescing cap: a pipelined burst keeps queueing responses
/// (without flushing) until this many bytes are pending, then they all leave
/// in one sendmsg. Bounds per-connection buffering against a client that
/// pipelines thousands of requests.
constexpr std::size_t kCoalesceMaxBytes = 256 * 1024;

/// iovec spans per sendmsg. 64 covers 32 head+body responses per syscall;
/// a longer queue just takes another sendmsg from the cursor.
constexpr std::size_t kMaxIov = 64;

/// handler_ema_us_ sentinel: no completed request yet, never inline.
constexpr std::uint64_t kEmaUnset = ~std::uint64_t{0};

/// Inline fast-path gate: only handlers whose recent EMA is at or below this
/// run on the event loop itself. Above it the loop->worker hand-off is noise
/// relative to the handler, and blocking a loop would stall its peers.
constexpr std::uint64_t kInlineMaxHandlerUs = 500;

/// Monotonic milliseconds for deadline arithmetic (never 0 in practice:
/// deadlines are always now + timeout with timeout >= 1).
std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Canned responses are shared immutable strings: every shed/timeout queues
/// them as a body_ref (refcount bump), never a copy.
const std::shared_ptr<const std::string>& overload_response() {
  static const std::shared_ptr<const std::string> response = [] {
    http::Response r =
        http::Response::json(503, R"({"error":"server overloaded, retry later"})");
    r.headers.emplace("Retry-After", "1");
    return std::make_shared<const std::string>(http::serialize(r, /*keep_alive=*/false));
  }();
  return response;
}

const std::shared_ptr<const std::string>& timeout_response() {
  static const std::shared_ptr<const std::string> response =
      std::make_shared<const std::string>(http::serialize(
          http::Response::json(408, R"({"error":"request timeout"})"), false));
  return response;
}

/// Timer-wheel tick: coarse enough to stay cheap, fine enough that a
/// deadline fires within ~12% of the configured timeout.
std::uint64_t wheel_tick_ms(int idle_timeout_ms) {
  const std::uint64_t tick = static_cast<std::uint64_t>(idle_timeout_ms) / 8;
  return std::clamp<std::uint64_t>(tick, 5, 500);
}

/// Return a chunk's buffers to the loop's pool. Shared bodies (body_ref) are
/// just a refcount drop; owned heads/bodies go back for the next response.
void reclaim_chunk(BufferPool& pool, OutChunk&& chunk) {
  if (chunk.head.capacity() > 0) pool.release(std::move(chunk.head));
  if (!chunk.body_ref && chunk.body.capacity() > 0) pool.release(std::move(chunk.body));
}

}  // namespace

/// Per-connection state, owned by exactly one event loop and touched only on
/// that loop's thread. Lives in the loop's fd-indexed slab; `generation`
/// distinguishes a recycled slab slot from the connection a worker was
/// serving, so a completion for a closed connection is dropped.
struct Server::Connection {
  int fd = -1;
  std::uint64_t generation = 0;
  bool open = false;
  bool executing = false;        ///< A request is out on the worker pool.
  bool close_after_write = false;
  bool peer_half_closed = false; ///< FIN seen with work still in flight.
  bool want_read = false;
  bool want_write = false;
  bool in_message = false;  ///< Bytes of the current request have arrived
                            ///< (deadline is fixed, not refreshed -- slowloris).
  WriteQueue outq;  ///< Pending responses; iovec cursor resumes partial writes.
  http::RequestParser parser;
};

struct Server::EventLoop {
  explicit EventLoop(std::uint64_t tick_ms) : wheel(tick_ms) {}
  ~EventLoop() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  std::size_t index = 0;
  Poller poller;  ///< Its eventfd outlives the thread: a late wake() is harmless.
  int listen_fd = -1;                ///< This loop's listening socket.
  bool listen_deregistered = false;  ///< Listen fd pulled from the poller on stop.
  std::deque<Connection> slab;       ///< fd-indexed; deque keeps refs stable.
  TimerWheel wheel;
  std::vector<int> expired_scratch;
  BufferPool pool;  ///< Loop-thread-only buffer recycling (heads, owned bodies).

  // Cross-thread inbox: finished responses from workers and async handlers.
  // Guarded by inbox_mutex; wake_signaled collapses eventfd writes.
  std::mutex inbox_mutex;
  std::vector<CompletionMsg> completions;
  bool wake_signaled = false;

  std::atomic<std::size_t> open_count{0};
  std::atomic<std::uint64_t> accepted{0};  ///< Connections landed on this loop.
  std::thread thread;
};

Server::Server(ServerOptions options, AsyncHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  if (!handler_) throw std::invalid_argument("Server: null handler");
  options_.threads = std::max<std::size_t>(options_.threads, 1);
  options_.event_threads = std::max<std::size_t>(options_.event_threads, 1);
  options_.max_pending = std::max<std::size_t>(options_.max_pending, 1);
  options_.idle_timeout_ms = std::max(options_.idle_timeout_ms, 1);

  // Split the total pending budget across the per-worker queues; every queue
  // gets at least one slot so a worker can always be handed work.
  queues_.reserve(options_.threads);
  const std::size_t per = options_.max_pending / options_.threads;
  const std::size_t extra = options_.max_pending % options_.threads;
  for (std::size_t i = 0; i < options_.threads; ++i) {
    auto queue = std::make_unique<WorkerQueue>();
    queue->capacity = std::max<std::size_t>(per + (i < extra ? 1 : 0), 1);
    queues_.push_back(std::move(queue));
  }
}

Server::Server(ServerOptions options, Handler handler)
    : Server(std::move(options),
             handler ? AsyncHandler([h = std::move(handler)](
                           const http::Request& request, Completion done) {
               done(h(request));
             })
                     : AsyncHandler{}) {}

Server::~Server() { stop(); }

int Server::make_listen_socket(std::uint16_t port, bool with_reuseport) {
  const auto fail = [&](int fd, const std::string& error) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("Server: cannot listen on " + options_.bind_address +
                             ':' + std::to_string(port) + ": " + error);
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) fail(fd, std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  // Must be set before bind for the kernel to shard accepts across the
  // per-loop sockets.
  if (with_reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    fail(fd, std::string("SO_REUSEPORT: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    fail(fd, "bad bind address '" + options_.bind_address + "'");
  }
  const int backlog =
      static_cast<int>(std::max<std::size_t>(options_.max_pending, 128));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    fail(fd, std::strerror(errno));
  }
  return fd;
}

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  loops_exit_.store(false);

  // One listener per loop. With several loops each binds with SO_REUSEPORT
  // and the kernel shards accepts across them; the first bind resolves
  // port 0 for the rest.
  const bool shard = options_.event_threads > 1;
  try {
    loops_.clear();
    const std::uint64_t tick = wheel_tick_ms(options_.idle_timeout_ms);
    for (std::size_t i = 0; i < options_.event_threads; ++i) {
      auto loop = std::make_unique<EventLoop>(tick);
      loop->index = i;
      loop->listen_fd = make_listen_socket(i == 0 ? options_.port : port_.load(), shard);
      if (i == 0) {
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        ::getsockname(loop->listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
        port_.store(ntohs(bound.sin_port));
      }
      loop->poller.add(loop->listen_fd, /*want_read=*/true, /*want_write=*/false);
      loops_.push_back(std::move(loop));
    }
  } catch (...) {
    loops_.clear();
    running_.store(false);
    throw;
  }

  for (auto& loop : loops_) {
    EventLoop* raw = loop.get();
    loop->thread = std::thread([this, raw] { event_loop_run(*raw); });
  }
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Server::stop() {
  if (!running_.load()) return;
  stopping_.store(true);

  // Stop the intake: every listen socket is shut down (pending SYNs get RST
  // on close) and its loop deregisters it the next time it wakes.
  for (auto& loop : loops_) {
    if (loop->listen_fd >= 0) ::shutdown(loop->listen_fd, SHUT_RDWR);
  }
  for (auto& loop : loops_) wake(*loop);

  // Drain the workers: queued jobs still execute and post their responses to
  // the (still running) event loops, preserving the old drain-then-exit
  // shutdown contract. Notifying under the mutex means a worker between its
  // predicate check and its wait cannot miss the wakeup.
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Now the loops: one final inbox drain (best-effort flush of completed
  // responses), then every connection is closed and the threads exit.
  loops_exit_.store(true);
  for (auto& loop : loops_) wake(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  for (auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mutex);
    queue->pending.clear();
  }
  jobs_queued_.store(0, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    if (loop->listen_fd >= 0) {
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
    }
  }
  running_.store(false);
}

// ---------------------------------------------------------------------------
// Event loop

void Server::event_loop_run(EventLoop& loop) {
  std::vector<PollerEvent> events;
  while (true) {
    drain_inbox(loop);
    if (loops_exit_.load(std::memory_order_acquire)) break;
    if (loop.listen_fd >= 0 && !loop.listen_deregistered &&
        stopping_.load(std::memory_order_relaxed)) {
      loop.poller.remove(loop.listen_fd);
      loop.listen_deregistered = true;
    }
    const int timeout =
        loop.wheel.empty() ? -1 : static_cast<int>(loop.wheel.tick_ms());
    loop.poller.wait(events, timeout);
    for (const PollerEvent& event : events) {
      if (event.fd == loop.listen_fd && !loop.listen_deregistered) {
        if (!stopping_.load(std::memory_order_relaxed)) accept_ready(loop);
        continue;
      }
      handle_io(loop, event);
    }
    expire_deadlines(loop);
  }

  // Exit: the inbox was just drained (responses got one nonblocking flush);
  // close whatever is still open. The poller and its eventfd stay until the
  // loop is destroyed, so a completion posted after this point only queues.
  for (Connection& connection : loop.slab) {
    if (connection.open) close_connection(loop, connection);
  }
  if (loop.listen_fd >= 0 && !loop.listen_deregistered) {
    loop.poller.remove(loop.listen_fd);
    loop.listen_deregistered = true;
  }
}

void Server::drain_inbox(EventLoop& loop) {
  std::vector<CompletionMsg> completions;
  {
    std::lock_guard<std::mutex> lock(loop.inbox_mutex);
    completions.swap(loop.completions);
    loop.wake_signaled = false;
  }
  for (CompletionMsg& completion : completions) apply_completion(loop, completion);
}

void Server::wake(EventLoop& loop) {
  std::lock_guard<std::mutex> lock(loop.inbox_mutex);
  if (!loop.wake_signaled) {
    loop.wake_signaled = true;
    loop.poller.wake();
  }
}

void Server::accept_ready(EventLoop& loop) {
  // The kernel picked this loop's socket, so the connection stays here.
  for (;;) {
    const int fd =
        ::accept4(loop.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained), or the listen socket is gone
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    loop.accepted.fetch_add(1, std::memory_order_relaxed);
    adopt_connection(loop, fd);
  }
}

void Server::adopt_connection(EventLoop& loop, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  while (loop.slab.size() <= static_cast<std::size_t>(fd)) loop.slab.emplace_back();
  Connection& connection = loop.slab[static_cast<std::size_t>(fd)];
  connection.fd = fd;
  connection.generation = generation_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  connection.open = true;
  connection.executing = false;
  connection.close_after_write = false;
  connection.peer_half_closed = false;
  connection.want_read = false;
  connection.want_write = false;
  connection.in_message = false;
  connection.outq.clear([&loop](OutChunk&& chunk) {
    reclaim_chunk(loop.pool, std::move(chunk));
  });
  http::ParserLimits limits;
  limits.max_body_bytes = options_.max_body_bytes;
  connection.parser = http::RequestParser(limits);
  loop.poller.add(fd, /*want_read=*/true, /*want_write=*/false);
  connection.want_read = true;
  loop.open_count.fetch_add(1, std::memory_order_relaxed);
  loop.wheel.schedule(fd, now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
}

void Server::handle_io(EventLoop& loop, const PollerEvent& event) {
  if (event.fd < 0 || static_cast<std::size_t>(event.fd) >= loop.slab.size()) return;
  Connection& connection = loop.slab[static_cast<std::size_t>(event.fd)];
  if (!connection.open) return;  // stale event for a recycled fd
  if (event.error && !connection.want_read && !connection.want_write) {
    // Peer vanished while its request executes: no interest is armed, so a
    // level-triggered HUP would re-report forever. Close now; the worker's
    // completion will miss on the generation check and be dropped.
    close_connection(loop, connection);
    return;
  }
  if (event.writable && connection.want_write) {
    flush(loop, connection);
    if (!connection.open) return;
  }
  if (event.readable && connection.want_read) read_some(loop, connection);
}

void Server::read_some(EventLoop& loop, Connection& connection) {
  // Read interest stays armed while a request executes (saves two epoll_ctl
  // calls per request on the keep-alive fast path); bound what a pipelining
  // flood can buffer meanwhile.
  if (connection.executing &&
      connection.parser.buffered_bytes() >= kPipelineReadAheadBytes) {
    set_read_interest(loop, connection, false);  // re-armed after the response
    return;
  }
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buf, sizeof buf, 0);
    if (n > 0) {
      connection.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (connection.parser.done() || connection.parser.failed()) break;
      if (static_cast<std::size_t>(n) < sizeof buf) break;  // likely drained
      continue;
    }
    if (n == 0) {
      if (connection.executing || connection.parser.done() ||
          !connection.outq.empty()) {
        // Half-close: the peer sent its request(s) then shut down its write
        // side; finish the in-flight response(s) before closing.
        connection.peer_half_closed = true;
        set_read_interest(loop, connection, false);
        break;
      }
      close_connection(loop, connection);  // EOF between or mid-request
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(loop, connection);
    return;
  }
  process(loop, connection);
}

void Server::process(EventLoop& loop, Connection& connection) {
  if (!connection.open || connection.executing) return;
  if (!connection.outq.empty()) return;  // finish writing first

  if (connection.parser.failed()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    const int status = connection.parser.error_status();
    record_status(status);
    http::Response response = http::Response::json(
        status, Json(JsonObject{{"error", Json(connection.parser.error())}}).dump());
    OutChunk chunk;
    chunk.head = loop.pool.acquire();
    http::serialize_head(response, /*keep_alive=*/false, chunk.head);
    chunk.body = std::move(response.body);
    respond_and_close(loop, connection, std::move(chunk));
    return;
  }

  if (connection.parser.done() && stopping_.load(std::memory_order_relaxed)) {
    close_connection(loop, connection);
    return;
  }

  // Inline fast path: when the worker queues are empty and recent handlers
  // were cheap, run the handler on the loop thread, skipping two context
  // switches and the eventfd wakeup per request. A pipelined burst
  // drains iteratively here (no recursion), queueing each response WITHOUT
  // flushing -- the whole burst then leaves in one sendmsg (or resumes via
  // EPOLLOUT). Slow or parked handlers are discovered on the worker pool
  // (EMA starts at "unset") and keep going there, so a loop is never
  // blocked by them.
  for (;;) {
    bool inlined = false;
    while (connection.open && !connection.executing &&
           !connection.close_after_write && connection.parser.done() &&
           inline_eligible() &&
           connection.outq.bytes_pending() < kCoalesceMaxBytes) {
      run_inline(loop, connection);
      inlined = true;
    }
    if (!inlined) break;
    if (connection.open && !connection.outq.empty()) {
      flush(loop, connection, /*reenter_process=*/false);
    }
    if (!connection.open || connection.executing || !connection.outq.empty() ||
        !connection.parser.done()) {
      break;
    }
    // Flush drained and another pipelined request is already parsed (the
    // burst stopped at the coalesce cap): go around again.
  }
  if (connection.open && !connection.outq.empty()) {
    // Partial write: bound the drain so a dead peer cannot pin the slot.
    loop.wheel.schedule(connection.fd,
                        now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
  }
  if (!connection.open || connection.executing || !connection.outq.empty()) {
    return;  // closed, deferred to a worker/async completion, or write pending
  }

  if (connection.parser.done()) {
    Job job;
    job.loop_index = loop.index;
    job.fd = connection.fd;
    job.generation = connection.generation;
    job.keep_alive = connection.parser.request().keep_alive();
    job.request = connection.parser.release_request();
    if (!push_job(std::move(job))) {
      // Every per-worker queue full: shed at the hand-off so latency stays
      // flat, same 503 + Retry-After contract as the old at-the-door shed.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      OutChunk chunk;
      chunk.body_ref = overload_response();
      respond_and_close(loop, connection, std::move(chunk));
      return;
    }
    connection.executing = true;
    loop.wheel.cancel(connection.fd);
    return;
  }

  // Mid-parse or idle: keep reading.
  if (connection.peer_half_closed) {
    // No more bytes will ever arrive; anything unparsed is an incomplete
    // request and every completed one has been answered.
    close_connection(loop, connection);
    return;
  }
  set_read_interest(loop, connection, true);
  if (connection.parser.idle()) {
    connection.in_message = false;
    loop.wheel.schedule(connection.fd,
                        now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
  } else if (!connection.in_message) {
    // First byte of a request fixes the whole-message deadline; deliberately
    // NOT refreshed on later bytes, so a slowloris trickle cannot pin a slot.
    connection.in_message = true;
    loop.wheel.schedule(connection.fd,
                        now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
  }
}

bool Server::inline_eligible() const {
  return jobs_queued_.load(std::memory_order_relaxed) == 0 &&
         handler_ema_us_.load(std::memory_order_relaxed) <= kInlineMaxHandlerUs;
}

void Server::update_handler_ema(std::uint64_t micros) {
  // Racy read-modify-write is fine: the EMA only gates an optimization.
  const std::uint64_t prev = handler_ema_us_.load(std::memory_order_relaxed);
  const std::uint64_t next = prev == kEmaUnset ? micros : (prev * 7 + micros) / 8;
  handler_ema_us_.store(next, std::memory_order_relaxed);
}

void Server::run_inline(EventLoop& loop, Connection& connection) {
  // Shared with the completion callback: if the handler invokes it
  // synchronously (the common case) the response is applied right here --
  // serialized into a pooled head buffer and queued for the burst flush; if
  // it defers, the window is closed by then and the completion routes
  // through post_completion like a worker's would (serialized off-loop, so
  // it must not touch the pool).
  struct InlineSlot {
    std::atomic<bool> delivered{false};
    std::mutex mutex;
    bool window_open = true;
    bool ready = false;
    http::Response response;
  };

  const bool keep = connection.parser.request().keep_alive();
  http::Request request = connection.parser.release_request();
  loop.wheel.cancel(connection.fd);
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  const auto started = std::chrono::steady_clock::now();
  auto slot = std::make_shared<InlineSlot>();
  const std::size_t loop_index = loop.index;
  const int fd = connection.fd;
  const std::uint64_t generation = connection.generation;
  auto complete = [this, slot, loop_index, fd, generation, keep,
                   started](http::Response response) {
    if (slot->delivered.exchange(true)) return;
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      if (slot->window_open) {
        // Synchronous delivery: the loop thread serializes below, where it
        // can use its pool.
        slot->response = std::move(response);
        slot->ready = true;
        return;
      }
    }
    record_status(response.status);
    CompletionMsg msg;
    msg.fd = fd;
    msg.generation = generation;
    msg.keep_alive = keep;
    http::serialize_head(response, keep, msg.head);
    msg.body_ref = std::move(response.body_ref);
    if (!msg.body_ref) msg.body = std::move(response.body);
    const std::uint64_t micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    record_latency(micros);
    update_handler_ema(micros);
    post_completion(loop_index, std::move(msg));
  };
  try {
    handler_(request, complete);
  } catch (const std::exception& e) {
    complete(http::Response::json(
        500, Json(JsonObject{{"error", Json(std::string("internal error: ") + e.what())}})
                 .dump()));
  } catch (...) {
    complete(http::Response::json(500, R"({"error":"internal error"})"));
  }

  http::Response response;
  bool ready = false;
  {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->window_open = false;
    if (slot->ready) {
      response = std::move(slot->response);
      ready = true;
    }
  }
  if (!ready) {
    // Asynchronous handler: the completion arrives on the inbox later, with
    // the usual generation check. Read interest stays armed, as on dispatch.
    connection.executing = true;
    return;
  }

  // Serialize into a pooled head buffer and queue without flushing --
  // process() flushes once per inline burst so pipelined responses coalesce
  // into a single sendmsg. A shared cache body rides as body_ref, uncopied.
  record_status(response.status);
  OutChunk chunk;
  chunk.head = loop.pool.acquire();
  http::serialize_head(response, keep, chunk.head);
  chunk.body_ref = std::move(response.body_ref);
  if (!chunk.body_ref) chunk.body = std::move(response.body);
  const std::uint64_t micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  record_latency(micros);
  update_handler_ema(micros);
  connection.outq.push(std::move(chunk));
  if (keep) {
    connection.parser.next();
    connection.in_message = false;
  } else {
    connection.close_after_write = true;
  }
}

void Server::flush(EventLoop& loop, Connection& connection, bool reenter_process) {
  auto reclaim = [&loop](OutChunk&& chunk) {
    reclaim_chunk(loop.pool, std::move(chunk));
  };
  while (!connection.outq.empty()) {
    struct iovec iov[kMaxIov];
    const std::size_t iov_count = connection.outq.build_iov(iov, kMaxIov);
    if (iov_count == 0) {  // only zero-length chunks queued (shouldn't happen)
      connection.outq.clear(reclaim);
      break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    // sendmsg rather than writev so MSG_NOSIGNAL applies (no SIGPIPE on a
    // vanished peer); one syscall covers every queued response.
    const ssize_t n = ::sendmsg(connection.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      if (connection.outq.chunk_count() > 1) {
        writev_batches_.fetch_add(1, std::memory_order_relaxed);
      }
      connection.outq.advance(static_cast<std::size_t>(n), reclaim);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!connection.want_write) {
        connection.want_write = true;
        loop.poller.modify(connection.fd, connection.want_read, true);
      }
      return;  // EPOLLOUT re-arms; the cursor resumes mid-head or mid-body
    }
    close_connection(loop, connection);
    return;
  }
  if (connection.want_write) {
    connection.want_write = false;
    loop.poller.modify(connection.fd, connection.want_read, false);
  }
  if (connection.close_after_write) {
    close_connection(loop, connection);
    return;
  }
  // A pipelined request may already be complete. The inline fast path passes
  // reenter_process=false and iterates in process() instead, so a pipelined
  // burst cannot recurse.
  if (reenter_process) process(loop, connection);
}

void Server::respond_and_close(EventLoop& loop, Connection& connection,
                               OutChunk chunk) {
  connection.outq.push(std::move(chunk));
  connection.close_after_write = true;
  set_read_interest(loop, connection, false);
  // Bound the drain: a peer that never reads its error/overload response is
  // reaped at the next deadline instead of pinning the slot.
  loop.wheel.schedule(connection.fd,
                      now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
  flush(loop, connection);
}

void Server::apply_completion(EventLoop& loop, CompletionMsg& completion) {
  if (completion.fd < 0 ||
      static_cast<std::size_t>(completion.fd) >= loop.slab.size()) {
    return;
  }
  Connection& connection = loop.slab[static_cast<std::size_t>(completion.fd)];
  if (!connection.open || connection.generation != completion.generation) return;
  connection.executing = false;
  OutChunk chunk;
  chunk.head = std::move(completion.head);
  chunk.body = std::move(completion.body);
  chunk.body_ref = std::move(completion.body_ref);
  connection.outq.push(std::move(chunk));
  if (completion.keep_alive) {
    // Re-arm; retains pipelined bytes. On a half-closed peer the re-armed
    // parser drains any buffered pipelined requests, then process() closes.
    connection.parser.next();
    connection.in_message = false;
  } else {
    connection.close_after_write = true;
  }
  flush(loop, connection);
  if (connection.open && !connection.outq.empty()) {
    // Partial write: bound the response drain so a dead peer cannot pin the
    // slot forever.
    loop.wheel.schedule(connection.fd,
                        now_ms() + static_cast<std::uint64_t>(options_.idle_timeout_ms));
  }
}

void Server::expire_deadlines(EventLoop& loop) {
  loop.expired_scratch.clear();
  loop.wheel.collect_expired(now_ms(), loop.expired_scratch);
  for (const int fd : loop.expired_scratch) {
    Connection& connection = loop.slab[static_cast<std::size_t>(fd)];
    if (!connection.open || connection.executing) continue;
    const bool idle_reap = connection.parser.idle() && connection.outq.empty() &&
                           !connection.close_after_write;
    if (!idle_reap) timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (connection.outq.empty() && !connection.close_after_write &&
        !connection.parser.failed() && !connection.parser.idle()) {
      // Mid-request deadline (slowloris / stalled body): answer 408, close.
      record_status(408);
      OutChunk chunk;
      chunk.body_ref = timeout_response();
      respond_and_close(loop, connection, std::move(chunk));
    } else {
      // Idle keep-alive reap, or a peer that never drained its response.
      close_connection(loop, connection);
    }
  }
}

void Server::close_connection(EventLoop& loop, Connection& connection) {
  if (!connection.open) return;
  loop.poller.remove(connection.fd);
  ::close(connection.fd);
  loop.wheel.cancel(connection.fd);
  connection.open = false;
  connection.executing = false;
  connection.want_read = false;
  connection.want_write = false;
  connection.close_after_write = false;
  connection.outq.clear([&loop](OutChunk&& chunk) {
    reclaim_chunk(loop.pool, std::move(chunk));
  });
  loop.open_count.fetch_sub(1, std::memory_order_relaxed);
}

void Server::set_read_interest(EventLoop& loop, Connection& connection, bool want) {
  if (connection.want_read == want) return;
  connection.want_read = want;
  loop.poller.modify(connection.fd, want, connection.want_write);
}

void Server::post_completion(std::size_t loop_index, CompletionMsg completion) {
  if (loop_index >= loops_.size()) return;
  EventLoop& loop = *loops_[loop_index];
  {
    std::lock_guard<std::mutex> lock(loop.inbox_mutex);
    loop.completions.push_back(std::move(completion));
  }
  wake(loop);
}

// ---------------------------------------------------------------------------
// Worker pool

bool Server::push_job(Job&& job) {
  // Deal round-robin; when the preferred queue is full, offer the job to
  // every other queue once before declaring overload. Multiple loop threads
  // push concurrently, so the cursor is a shared atomic.
  const std::size_t n = queues_.size();
  const std::size_t start = next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t offset = 0; offset < n; ++offset) {
    WorkerQueue& queue = *queues_[(start + offset) % n];
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.pending.size() >= queue.capacity) continue;
      queue.pending.push_back(std::move(job));
    }
    {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      jobs_queued_.fetch_add(1, std::memory_order_relaxed);
    }
    // Notify after unlocking: a worker woken under the lock would block at
    // once on idle_mutex_, costing two more context switches per job when it
    // shares a core with this loop.
    idle_cv_.notify_one();
    return true;
  }
  return false;  // every queue full -> 503 at the hand-off
}

bool Server::try_pop(std::size_t queue_index, Job& job) {
  WorkerQueue& queue = *queues_[queue_index];
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.pending.empty()) return false;
    job = std::move(queue.pending.front());
    queue.pending.pop_front();
  }
  jobs_queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Server::pop_job(std::size_t worker_index, Job& job) {
  const std::size_t n = queues_.size();
  while (true) {
    // Own queue first, then a steal scan over the neighbors so work dealt to
    // a busy worker cannot sit while this one idles.
    for (std::size_t offset = 0; offset < n; ++offset) {
      if (try_pop((worker_index + offset) % n, job)) return true;
    }
    if (stopping_.load()) return false;
    // Every idle worker sleeps on one condition, so any push can wake any of
    // them. push_job raises the count and stop() notifies under idle_mutex_,
    // so no wakeup is lost and no timeout is needed.
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
      return stopping_.load() || jobs_queued_.load(std::memory_order_relaxed) > 0;
    });
  }
}

void Server::worker_loop(std::size_t worker_index) {
  Job job;
  while (pop_job(worker_index, job)) {
    execute_job(job);
    job = Job{};  // release the request buffers before blocking again
  }
}

void Server::execute_job(Job& job) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  const bool keep = job.keep_alive && !stopping_.load(std::memory_order_relaxed);
  const auto started = std::chrono::steady_clock::now();
  // `delivered` makes the completion single-shot: the handler calling done()
  // twice, or an exception after done(), cannot produce a second response.
  auto delivered = std::make_shared<std::atomic<bool>>(false);
  const std::size_t loop_index = job.loop_index;
  const int fd = job.fd;
  const std::uint64_t generation = job.generation;
  auto complete = [this, loop_index, fd, generation, keep, started,
                   delivered](http::Response response) {
    if (delivered->exchange(true)) return;
    record_status(response.status);
    CompletionMsg msg;
    msg.fd = fd;
    msg.generation = generation;
    msg.keep_alive = keep;
    // Head first (Content-Length reads the body), then move the body out:
    // the loop writes head+body as two iovecs without re-concatenating.
    http::serialize_head(response, keep, msg.head);
    msg.body_ref = std::move(response.body_ref);
    if (!msg.body_ref) msg.body = std::move(response.body);
    const std::uint64_t micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    record_latency(micros);
    update_handler_ema(micros);
    post_completion(loop_index, std::move(msg));
  };
  try {
    handler_(job.request, complete);
  } catch (const std::exception& e) {
    complete(http::Response::json(
        500, Json(JsonObject{{"error", Json(std::string("internal error: ") + e.what())}})
                 .dump()));
  } catch (...) {
    complete(http::Response::json(500, R"({"error":"internal error"})"));
  }
}

void Server::record_latency(std::uint64_t micros) {
  std::size_t bucket = kLatencyBucketEdgesUs.size();  // overflow bucket
  for (std::size_t i = 0; i < kLatencyBucketEdgesUs.size(); ++i) {
    if (micros <= kLatencyBucketEdgesUs[i]) {
      bucket = i;
      break;
    }
  }
  latency_buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void Server::record_status(int status) {
  if (status >= 200 && status < 300) {
    responses_2xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 400 && status < 500) {
    responses_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 500) {
    responses_5xx_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.responses_2xx = responses_2xx_.load(std::memory_order_relaxed);
  s.responses_4xx = responses_4xx_.load(std::memory_order_relaxed);
  s.responses_5xx = responses_5xx_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.threads = options_.threads;
  s.event_threads = options_.event_threads;
  s.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  s.writev_batches = writev_batches_.load(std::memory_order_relaxed);
  s.queue_depths.reserve(queues_.size());
  for (const auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mutex);
    s.queue_depths.push_back(queue->pending.size());
    s.queue_depth += queue->pending.size();
  }
  s.loop_connections.reserve(loops_.size());
  s.loop_accepts.reserve(loops_.size());
  for (const auto& loop : loops_) {
    s.loop_connections.push_back(loop->open_count.load(std::memory_order_relaxed));
    s.loop_accepts.push_back(loop->accepted.load(std::memory_order_relaxed));
    s.buffer_pool += loop->pool.stats();
  }
  for (std::size_t i = 0; i < s.latency_buckets.size(); ++i) {
    s.latency_buckets[i] = latency_buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace prm::serve
