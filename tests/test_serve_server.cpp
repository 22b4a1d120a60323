// serve::Server over real loopback sockets: request dispatch, keep-alive
// accounting, handler-exception mapping, malformed-wire handling, and the
// bounded-queue backpressure path (503 at the door under overload).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.hpp"
#include "serve/server.hpp"

namespace {

using namespace prm::serve;

http::Response echo_handler(const http::Request& request) {
  if (request.target == "/boom") throw std::runtime_error("handler exploded");
  http::Response response;
  response.body = request.method + ' ' + request.target + ' ' + request.body;
  return response;
}

/// Open a raw TCP connection to loopback:port, send `wire`, read until the
/// peer closes or `max_reads` recv calls complete. Returns everything read.
std::string raw_exchange(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // error servers close the connection after responding
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Server, ServesRequestsOnEphemeralPort) {
  Server server(ServerOptions{}, echo_handler);
  server.start();
  ASSERT_NE(server.port(), 0);

  http::Client client("127.0.0.1", server.port());
  const http::Response response = client.post_json("/echo", "payload");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "POST /echo payload");
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(Server, KeepAliveReusesOneConnection) {
  Server server(ServerOptions{}, echo_handler);
  server.start();
  {
    http::Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/one").body, "GET /one ");
    EXPECT_EQ(client.get("/two").body, "GET /two ");
    EXPECT_EQ(client.get("/three").body, "GET /three ");
  }
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_total, 3u);
  EXPECT_EQ(stats.responses_2xx, 3u);
  EXPECT_EQ(stats.connections_rejected, 0u);

  std::uint64_t histogram_total = 0;
  for (const std::uint64_t count : stats.latency_buckets) histogram_total += count;
  EXPECT_EQ(histogram_total, 3u);  // every request lands in exactly one bucket
}

TEST(Server, HandlerExceptionBecomes500) {
  Server server(ServerOptions{}, echo_handler);
  server.start();
  http::Client client("127.0.0.1", server.port());
  const http::Response response = client.get("/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("error"), std::string::npos);
  server.stop();
  EXPECT_EQ(server.stats().responses_5xx, 1u);
}

TEST(Server, MalformedWireGets400AndCountsAsParseError) {
  Server server(ServerOptions{}, echo_handler);
  server.start();
  const std::string reply = raw_exchange(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << reply;
  server.stop();
  EXPECT_EQ(server.stats().parse_errors, 1u);
  EXPECT_GE(server.stats().responses_4xx, 1u);
}

TEST(Server, OversizedBodyGets413) {
  ServerOptions options;
  options.max_body_bytes = 64;
  Server server(options, echo_handler);
  server.start();
  const std::string reply = raw_exchange(
      server.port(), "POST /big HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  EXPECT_NE(reply.find(" 413 "), std::string::npos) << reply;
  server.stop();
}

TEST(Server, OverloadShedsWith503AtTheDoor) {
  // One worker + a one-slot queue + a handler parked on a latch: the first
  // connection occupies the worker, the second fills the queue, and each
  // additional concurrent connection must be rejected with a canned 503.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;

  ServerOptions options;
  options.threads = 1;
  options.max_pending = 1;
  Server server(options, [&](const http::Request& request) {
    if (request.target == "/slow") {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    return http::Response{};
  });
  server.start();

  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> rejected_count{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &ok_count, &rejected_count] {
      try {
        http::Client client("127.0.0.1", server.port());
        const http::Response response = client.get("/slow");
        if (response.status == 200) ++ok_count;
        if (response.status == 503) ++rejected_count;
      } catch (const std::exception&) {
        // A reset from a rejected connection also counts as shed load.
        ++rejected_count;
      }
    });
  }

  // Give every client time to reach the server while the worker is parked,
  // then open the gate and let the accepted ones drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& thread : clients) thread.join();
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(ok_count + rejected_count, kClients);
  EXPECT_GT(rejected_count.load(), 0) << "expected the bounded queue to shed load";
  EXPECT_GT(stats.connections_rejected, 0u);
  EXPECT_GT(ok_count.load(), 0) << "accepted connections must still be served";
  // connections_accepted counts every accept(2), including ones later shed,
  // so accepted - rejected is the number of connections actually served.
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.connections_accepted - stats.connections_rejected,
            static_cast<std::uint64_t>(ok_count.load()));
}

TEST(Server, FullPerWorkerQueuesKeep503RetryAfterContractAndRecover) {
  // Two workers, max_pending = 2 -> one slot per worker queue. Four clients
  // parked on /slow occupy both workers and fill both queues (the acceptor
  // offers a connection to every queue before shedding, so the fill is
  // deterministic regardless of deal order). The fifth connection must get
  // the canned 503 + Retry-After, and once the gate opens and the backlog
  // drains, acceptance must resume.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;

  ServerOptions options;
  options.threads = 2;
  options.max_pending = 2;
  Server server(options, [&](const http::Request& request) {
    if (request.target == "/slow") {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    return http::Response{};
  });
  server.start();

  // Saturate in two waves (a single burst of four could race the workers:
  // the acceptor deals faster than an idle worker wakes, so a connection
  // meant to park in a handler could be shed at the door instead).
  constexpr int kParked = 4;  // 2 in workers + 2 queued
  std::atomic<int> parked_ok{0};
  std::vector<std::thread> parked;
  const auto launch_parked = [&] {
    parked.emplace_back([&server, &parked_ok] {
      http::Client client("127.0.0.1", server.port());
      if (client.get("/slow").status == 200) ++parked_ok;
    });
  };
  const auto spin_until = [&server](auto&& ready) {
    for (int spin = 0; spin < 500; ++spin) {
      if (ready(server.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  // On a failed spin the parked clients must still be released and joined
  // before the test returns, so failures funnel through this helper.
  const auto release_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
    for (std::thread& thread : parked) thread.join();
  };

  // Wave 1: occupy both workers. requests_total counts up right before the
  // handler runs, so 2 requests + empty queues = both workers parked.
  launch_parked();
  launch_parked();
  if (!spin_until([](const ServerStats& stats) {
        return stats.requests_total >= 2 && stats.queue_depth == 0;
      })) {
    release_and_join();
    FAIL() << "workers never picked up the first wave";
  }

  // Wave 2: with both workers parked, these must stay queued -> both
  // one-slot queues full.
  launch_parked();
  launch_parked();
  if (!spin_until([](const ServerStats& stats) {
        return stats.connections_accepted >= kParked && stats.queue_depth >= 2;
      })) {
    release_and_join();
    FAIL() << "second wave never filled the per-worker queues";
  }
  const ServerStats saturated = server.stats();
  ASSERT_EQ(saturated.queue_depths.size(), 2u);
  EXPECT_EQ(saturated.queue_depth, 2u);
  for (const std::size_t depth : saturated.queue_depths) EXPECT_EQ(depth, 1u);

  // Every queue full: the shed response must carry the Retry-After contract.
  const std::string reply =
      raw_exchange(server.port(), "GET /over HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find(" 503 "), std::string::npos) << reply;
  EXPECT_NE(reply.find("Retry-After: 1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("overloaded"), std::string::npos) << reply;

  // Wave 3: 252 concurrent connections against the same saturated server --
  // with the parked wave this totals 256 in flight. Every one must be shed
  // with a 503 (or a reset), none may hang, and the parked wave must still
  // complete afterwards: shedding stays flat at depth, it doesn't collapse.
  constexpr int kFlood = 252;
  std::atomic<int> flood_shed{0};
  std::atomic<int> flood_served{0};
  {
    std::vector<std::thread> flood;
    flood.reserve(kFlood);
    for (int i = 0; i < kFlood; ++i) {
      flood.emplace_back([&server, &flood_shed, &flood_served] {
        try {
          http::Client client("127.0.0.1", server.port());
          const int status = client.get("/over").status;
          if (status == 503) {
            ++flood_shed;
          } else if (status == 200) {
            ++flood_served;
          }
        } catch (const std::exception&) {
          ++flood_shed;  // reset after the canned 503 also counts as shed
        }
      });
    }
    for (std::thread& thread : flood) thread.join();
  }
  EXPECT_EQ(flood_shed.load(), kFlood) << "saturated server must shed the flood";
  EXPECT_EQ(flood_served.load(), 0);

  release_and_join();
  EXPECT_EQ(parked_ok.load(), kParked);  // queued connections were served, not shed

  // Drained queues accept again.
  http::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/after").status, 200);
  server.stop();
  EXPECT_GE(server.stats().connections_rejected,
            static_cast<std::uint64_t>(kFlood) + 1u);
}

TEST(Server, StopUnblocksIdleKeepAliveConnections) {
  Server server(ServerOptions{}, echo_handler);
  server.start();
  http::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/x").status, 200);
  // The connection is idle in a worker's recv loop; stop() must not hang on it.
  const auto before = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 3000);
}

TEST(Server, StartupStatsReportThreadCount) {
  ServerOptions options;
  options.threads = 3;
  options.event_threads = 2;
  Server server(options, echo_handler);
  server.start();
  EXPECT_EQ(server.stats().threads, 3u);
  EXPECT_EQ(server.stats().event_threads, 2u);
  EXPECT_EQ(server.stats().loop_connections.size(), 2u);
  server.stop();
}

TEST(Server, IdleWorkersSleepUntilWorkArrives) {
  // An idle server must not poll: its workers block until a job is pushed.
  // A 5 ms poll across 4 workers would be about 240 voluntary switches here.
  Server server(ServerOptions{}, echo_handler);
  server.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // threads settle
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_nvcsw - before.ru_nvcsw, 20);

  // ...and still wakes for the next request.
  http::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/x").status, 200);
  server.stop();
}

TEST(Server, StartThrowsAndReleasesEveryFdWhenAListenerCannotBind) {
  // A plain listener holds the port, so no SO_REUSEPORT shard can join it:
  // start() must throw, stay stopped, and close what it opened (listeners,
  // epoll instances, eventfds).
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(holder, 4), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const auto open_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = open_fds();
  ServerOptions options;
  options.port = ntohs(addr.sin_port);
  options.event_threads = 2;
  Server server(options, echo_handler);
  EXPECT_THROW(server.start(), std::runtime_error);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(open_fds(), before);
  ::close(holder);

  // The same Server binds once the port is free.
  server.start();
  http::Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/after").status, 200);
  server.stop();
}

TEST(Server, CompletionsPostedWhileStoppingDoNotKillTheProcess) {
  // Deferred completions posted from a foreign thread while stop() runs:
  // some land before the loops exit, some while they exit, some after. Each
  // wakes its loop. A wakeup that reaches a closed pipe raises SIGPIPE,
  // which under the default disposition ends the process (exit 141).
  std::signal(SIGPIPE, SIG_DFL);
  constexpr int kCycles = 200;
  constexpr int kRequests = 4;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::mutex mutex;
    std::vector<Server::Completion> parked;
    ServerOptions options;
    options.threads = 2;
    options.event_threads = 2;
    Server server(options, [&](const http::Request&, Server::Completion done) {
      std::lock_guard<std::mutex> lock(mutex);
      parked.push_back(std::move(done));
    });
    server.start();

    std::vector<int> fds;
    for (int i = 0; i < kRequests; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server.port());
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
      const std::string wire = "GET /deferred HTTP/1.1\r\n\r\n";
      ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(wire.size()));
      fds.push_back(fd);
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (parked.size() == static_cast<std::size_t>(kRequests)) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "cycle " << cycle;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    // Stagger the completions across the stop: the first right away, the
    // rest a cycle-dependent few tens of microseconds apart.
    std::thread completer([&] {
      std::vector<Server::Completion> batch;
      {
        std::lock_guard<std::mutex> lock(mutex);
        batch.swap(parked);
      }
      for (Server::Completion& done : batch) {
        done(http::Response{});
        std::this_thread::sleep_for(std::chrono::microseconds(10 * (cycle % 8)));
      }
    });
    server.stop();
    completer.join();
    for (const int fd : fds) ::close(fd);
  }
}

TEST(Server, SlowlorisTrickleIsClosedAtHeaderDeadline) {
  // A client trickling one header byte per 50 ms keeps the socket "active"
  // forever; the request deadline is fixed at first-byte + idle_timeout_ms,
  // so the server must answer 408 and close well before the trickle ends.
  ServerOptions options;
  options.idle_timeout_ms = 200;
  Server server(options, echo_handler);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  const std::string head = "GET /drip HTTP/1.1\r\nX-Drip: ";
  ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));

  const auto started = std::chrono::steady_clock::now();
  std::string reply;
  bool closed = false;
  // Trickle for up to 4 s; the server should cut us off at ~200 ms. Drain
  // right before each send so the 408 + FIN is read before we could provoke
  // a reset by writing into a closed socket.
  for (int i = 0; i < 80 && !closed; ++i) {
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        reply.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        closed = true;  // orderly close after the 408 (or a reset)
      }
      break;
    }
    if (closed) break;
    (void)::send(fd, "a", 1, MSG_NOSIGNAL);  // may fail once the server closed
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::close(fd);
  const auto elapsed = std::chrono::steady_clock::now() - started;

  EXPECT_TRUE(closed) << "server never closed the slowloris connection";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);
  EXPECT_NE(reply.find(" 408 "), std::string::npos) << reply;
  server.stop();
  EXPECT_GE(server.stats().timeouts, 1u);
  EXPECT_GE(server.stats().responses_4xx, 1u);
}

TEST(Server, PipelinedRequestsAnswerInOrder) {
  // Four requests written back-to-back before reading anything. The server
  // runs one request per connection at a time, so the four responses must
  // come back complete and in request order on the one connection.
  Server server(ServerOptions{}, echo_handler);
  server.start();

  const std::string wire =
      "GET /p1 HTTP/1.1\r\n\r\n"
      "POST /p2 HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
      "GET /p3 HTTP/1.1\r\n\r\n"
      "GET /p4 HTTP/1.1\r\nConnection: close\r\n\r\n";
  const std::string reply = raw_exchange(server.port(), wire);

  std::size_t statuses = 0;
  for (std::size_t pos = reply.find("HTTP/1.1 200 OK"); pos != std::string::npos;
       pos = reply.find("HTTP/1.1 200 OK", pos + 1)) {
    ++statuses;
  }
  EXPECT_EQ(statuses, 4u) << reply;
  const std::size_t p1 = reply.find("GET /p1 ");
  const std::size_t p2 = reply.find("POST /p2 xyz");
  const std::size_t p3 = reply.find("GET /p3 ");
  const std::size_t p4 = reply.find("GET /p4 ");
  ASSERT_NE(p1, std::string::npos) << reply;
  ASSERT_NE(p2, std::string::npos) << reply;
  ASSERT_NE(p3, std::string::npos) << reply;
  ASSERT_NE(p4, std::string::npos) << reply;
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);

  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_total, 4u);
  EXPECT_EQ(stats.responses_2xx, 4u);
}

/// Scripted one-connection-at-a-time fake server: for each accepted
/// connection, reads one request head and plays back the next canned
/// response verbatim (possibly truncated), then closes. Counts requests so
/// tests can assert the client did NOT silently retry a truncated exchange.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<std::string> scripts)
      : scripts_(std::move(scripts)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { run(); });
  }

  ~ScriptedServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }

  std::uint16_t port() const { return port_; }
  int requests_seen() const { return requests_seen_.load(); }

 private:
  void run() {
    for (const std::string& script : scripts_) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener shut down
      char buf[4096];
      std::string head;
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(conn, buf, sizeof buf, 0);
        if (n <= 0) break;
        head.append(buf, static_cast<std::size_t>(n));
      }
      requests_seen_.fetch_add(1);
      if (!script.empty()) {
        (void)::send(conn, script.data(), script.size(), MSG_NOSIGNAL);
      }
      ::close(conn);
    }
  }

  std::vector<std::string> scripts_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<int> requests_seen_{0};
  std::thread thread_;
};

TEST(HttpClient, StaleKeepAliveReconnectsButTruncationDoesNot) {
  const std::string full =
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";

  {
    // Stale keep-alive: the first exchange completes, then the server closes
    // the idle connection. The next request sees EOF before any response
    // byte and must transparently retry on a fresh connection.
    ScriptedServer server({full, full});
    http::Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/a").body, "ok");
    EXPECT_EQ(client.get("/b").body, "ok");  // reconnect under the hood
    EXPECT_EQ(server.requests_seen(), 2);
  }
  {
    // Truncated mid-body: headers promise 10 bytes, the wire carries 3. The
    // client must throw a truncation error and must NOT resend the request
    // (a retry could duplicate a non-idempotent operation).
    ScriptedServer server(
        {"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", full});
    http::Client client("127.0.0.1", server.port());
    try {
      client.get("/c");
      FAIL() << "expected a truncation error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated mid-body"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(server.requests_seen(), 1);
  }
  {
    // Truncated mid-headers: same contract, distinct diagnostic.
    ScriptedServer server({"HTTP/1.1 200 OK\r\nContent-Le", full});
    http::Client client("127.0.0.1", server.port());
    try {
      client.get("/d");
      FAIL() << "expected a truncation error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated mid-headers"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(server.requests_seen(), 1);
  }
}

}  // namespace
