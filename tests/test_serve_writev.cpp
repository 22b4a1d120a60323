// The vectored-write data path: WriteQueue iovec building and cursor
// resume, BufferPool recycling accounting, byte-identity of responses
// under forced short writes (socketpair), and pipelined-response
// coalescing through the real server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/buffer_pool.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/write_queue.hpp"

namespace {

using namespace prm::serve;

OutChunk owned_chunk(std::string head, std::string body) {
  OutChunk chunk;
  chunk.head = std::move(head);
  chunk.body = std::move(body);
  return chunk;
}

OutChunk shared_chunk(std::string head, std::string body) {
  OutChunk chunk;
  chunk.head = std::move(head);
  chunk.body_ref = std::make_shared<const std::string>(std::move(body));
  return chunk;
}

std::string concat(const WriteQueue&, const std::vector<OutChunk>& chunks) {
  std::string all;
  for (const OutChunk& chunk : chunks) {
    all += chunk.head;
    all += chunk.body_bytes();
  }
  return all;
}

TEST(WriteQueue, BuildIovSkipsEmptyPartsAndHonorsMax) {
  WriteQueue queue;
  queue.push(owned_chunk("head0", ""));        // no body -> one span
  queue.push(owned_chunk("", "body1"));        // no head -> one span
  queue.push(shared_chunk("head2", "body2"));  // two spans

  iovec iov[8];
  ASSERT_EQ(queue.build_iov(iov, 8), 4u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "head0");
  EXPECT_EQ(std::string(static_cast<char*>(iov[1].iov_base), iov[1].iov_len), "body1");
  EXPECT_EQ(std::string(static_cast<char*>(iov[2].iov_base), iov[2].iov_len), "head2");
  EXPECT_EQ(std::string(static_cast<char*>(iov[3].iov_base), iov[3].iov_len), "body2");

  // A smaller max truncates the gather list without disturbing the cursor.
  ASSERT_EQ(queue.build_iov(iov, 2), 2u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[1].iov_base), iov[1].iov_len), "body1");
  EXPECT_EQ(queue.bytes_pending(), 5u + 5u + 5u + 5u);
}

TEST(WriteQueue, AdvanceResumesMidHeadAndMidBody) {
  WriteQueue queue;
  queue.push(owned_chunk("HEADER", "BODYBYTES"));
  int reclaimed = 0;
  const auto reclaim = [&](OutChunk&&) { ++reclaimed; };

  queue.advance(3, reclaim);  // cursor mid-head
  iovec iov[4];
  ASSERT_EQ(queue.build_iov(iov, 4), 2u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "DER");

  queue.advance(3 + 4, reclaim);  // finish head, land mid-body
  ASSERT_EQ(queue.build_iov(iov, 4), 1u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "BYTES");
  EXPECT_EQ(reclaimed, 0);

  queue.advance(5, reclaim);  // drain
  EXPECT_EQ(reclaimed, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bytes_pending(), 0u);
}

TEST(WriteQueue, ExactPartBoundariesNormalizeAndZeroChunksNeverLinger) {
  WriteQueue queue;
  queue.push(owned_chunk("AB", "CD"));
  queue.push(owned_chunk("", ""));  // zero-size chunk queued behind it
  queue.push(owned_chunk("EF", ""));
  int reclaimed = 0;
  const auto reclaim = [&](OutChunk&&) { ++reclaimed; };

  queue.advance(2, reclaim);  // exactly the head: cursor must sit on the body
  iovec iov[4];
  ASSERT_GE(queue.build_iov(iov, 4), 1u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "CD");

  // Finishing the body must also sweep the zero-size chunk behind it.
  queue.advance(2, reclaim);
  EXPECT_EQ(reclaimed, 2);
  ASSERT_EQ(queue.build_iov(iov, 4), 1u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "EF");
  queue.advance(2, reclaim);
  EXPECT_EQ(reclaimed, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(WriteQueue, ClearReclaimsEveryChunkAndResetsCursor) {
  WriteQueue queue;
  queue.push(owned_chunk("abc", "def"));
  queue.push(shared_chunk("ghi", "jkl"));
  int reclaimed = 0;
  queue.advance(2, [](OutChunk&&) {});  // park the cursor mid-head first
  queue.clear([&](OutChunk&&) { ++reclaimed; });
  EXPECT_EQ(reclaimed, 2);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bytes_pending(), 0u);
  queue.push(owned_chunk("xy", ""));
  iovec iov[2];
  ASSERT_EQ(queue.build_iov(iov, 2), 1u);
  EXPECT_EQ(std::string(static_cast<char*>(iov[0].iov_base), iov[0].iov_len), "xy");
}

TEST(BufferPool, RecyclesReleasedCapacityAndCountsMisses) {
  BufferPool pool;
  std::string first = pool.acquire(100);
  EXPECT_GE(first.capacity(), 100u);
  const std::size_t capacity = first.capacity();
  first = "scribbled";  // content must not leak into the next acquire
  pool.release(std::move(first));

  std::string second = pool.acquire(100);
  EXPECT_TRUE(second.empty());
  EXPECT_GE(second.capacity(), capacity);

  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.recycled, 1u);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.high_water, 1u);
  EXPECT_EQ(stats.in_use, 1u);  // `second` is still out
}

TEST(BufferPool, OversizedAndOverfullReleasesAreDroppedNotPooled) {
  BufferPool pool;
  std::string huge;
  huge.reserve(BufferPool::kClassBytes.back() + 1);
  pool.release(std::move(huge));
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.stats().pooled, 0u);

  for (std::size_t i = 0; i < BufferPool::kMaxPerClass + 5; ++i) {
    std::string buffer;
    buffer.reserve(64);
    pool.release(std::move(buffer));
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.pooled, BufferPool::kMaxPerClass);
  EXPECT_EQ(stats.dropped, 6u);  // the oversized one + 5 past the class cap
}

/// Drive a WriteQueue across a socketpair with every sendmsg clamped to at
/// most 7 bytes: the cursor must resume at every offset class -- mid-head,
/// the head/body seam, mid-body -- and the receiver must see the exact
/// byte stream the chunks describe.
TEST(WriteQueue, SocketpairShortWritesMidHeadAndMidBodyAreByteIdentical) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int writer = fds[0];
  const int reader = fds[1];

  std::vector<OutChunk> chunks;
  chunks.push_back(owned_chunk("HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n",
                               std::string(500, 'a')));
  chunks.push_back(shared_chunk("HTTP/1.1 200 OK\r\nContent-Length: 300\r\n\r\n",
                                std::string(300, 'b')));
  chunks.push_back(owned_chunk("HTTP/1.1 204 No Content\r\n\r\n", ""));

  WriteQueue queue;
  const std::string expected = concat(queue, chunks);
  for (OutChunk& chunk : chunks) {
    OutChunk copy;
    copy.head = chunk.head;
    copy.body = chunk.body;
    copy.body_ref = chunk.body_ref;
    queue.push(std::move(copy));
  }

  int reclaimed = 0;
  std::string received;
  char buf[256];
  while (!queue.empty()) {
    iovec iov[4];
    const std::size_t count = queue.build_iov(iov, 4);
    ASSERT_GT(count, 0u);
    iov[0].iov_len = std::min<std::size_t>(iov[0].iov_len, 7);  // force a short write
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 1;
    const ssize_t n = ::sendmsg(writer, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    ASSERT_GT(n, 0) << std::strerror(errno);
    ASSERT_LE(n, 7);
    queue.advance(static_cast<std::size_t>(n), [&](OutChunk&&) { ++reclaimed; });
    // Drain as we go so the socket buffer never fills.
    for (;;) {
      const ssize_t r = ::recv(reader, buf, sizeof buf, MSG_DONTWAIT);
      if (r <= 0) break;
      received.append(buf, static_cast<std::size_t>(r));
    }
  }
  for (;;) {
    const ssize_t r = ::recv(reader, buf, sizeof buf, MSG_DONTWAIT);
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  ::close(writer);
  ::close(reader);

  EXPECT_EQ(reclaimed, 3);
  EXPECT_EQ(received, expected);  // byte-identical despite ~120 short writes
}

/// Same byte-identity contract under real kernel-sized partial writes: a
/// shrunken send buffer and multi-span sendmsg calls, reading between
/// EAGAINs like the reactor's EPOLLOUT resume path does.
TEST(WriteQueue, SocketpairVectoredWritesSurviveKernelBackpressure) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int writer = fds[0];
  const int reader = fds[1];
  const int sndbuf = 4096;
  ::setsockopt(writer, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);

  WriteQueue queue;
  std::string expected;
  for (int i = 0; i < 6; ++i) {
    const std::string head =
        "HTTP/1.1 200 OK\r\nContent-Length: 20000\r\n\r\n";
    const std::string body(20000, static_cast<char>('a' + i));
    expected += head + body;
    queue.push(i % 2 == 0 ? owned_chunk(head, body) : shared_chunk(head, body));
  }

  int reclaimed = 0;
  std::string received;
  char buf[2048];
  while (!queue.empty()) {
    iovec iov[8];
    const std::size_t count = queue.build_iov(iov, 8);
    ASSERT_GT(count, 0u);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(writer, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      queue.advance(static_cast<std::size_t>(n), [&](OutChunk&&) { ++reclaimed; });
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
    const ssize_t r = ::recv(reader, buf, sizeof buf, 0);
    ASSERT_GT(r, 0);
    received.append(buf, static_cast<std::size_t>(r));
  }
  for (;;) {
    const ssize_t r = ::recv(reader, buf, sizeof buf, MSG_DONTWAIT);
    if (r <= 0) break;
    received.append(buf, static_cast<std::size_t>(r));
  }
  ::close(writer);
  ::close(reader);

  EXPECT_EQ(reclaimed, 6);
  EXPECT_EQ(received, expected);
}

/// Raw loopback client for the server-level tests below.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

TEST(Server, LargeResponseSurvivesShortWritesByteForByte) {
  // An 8 MiB patterned body exceeds the largest send buffer the kernel will
  // autotune (tcp_wmem caps at 4 MiB on common configs), so the server's
  // sendmsg must hit EAGAIN mid-body and resume from the write cursor when
  // the (deliberately slow) client finally reads. Every byte must arrive in
  // order exactly once.
  std::string pattern(8u << 20, '\0');
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>('a' + (i * 131) % 26);
  }
  Server server(ServerOptions{}, [&pattern](const http::Request&) {
    http::Response response;
    response.body = pattern;
    response.headers["Content-Type"] = "application/octet-stream";
    return response;
  });
  server.start();

  const int fd = connect_loopback(server.port());
  const std::string wire = "GET /big HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Let the server fill the socket buffers and park on EPOLLOUT before the
  // first read, so the partial-write resume path definitely runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  std::string reply;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.stop();

  const std::size_t split = reply.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(reply.find("Content-Length: 8388608\r\n"), std::string::npos);
  EXPECT_EQ(reply.substr(split + 4), pattern);  // byte-identical body
  EXPECT_GE(server.stats().writev_calls, 2u) << "expected a partial-write resume";
}

TEST(Server, PipelinedBurstCoalescesResponsesIntoOneWrite) {
  // Warm the handler EMA with a couple of ordinary requests so the inline
  // fast path opens, then pipeline four requests in one segment: the burst
  // must be answered in order and flushed as a coalesced vectored write
  // (writev_batches counts flushes that carried more than one response).
  ServerOptions options;
  options.event_threads = 1;
  Server server(options, [](const http::Request& request) {
    http::Response response;
    response.body = "echo:" + request.target;
    return response;
  });
  server.start();

  {
    http::Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/warm1").status, 200);
    EXPECT_EQ(client.get("/warm2").status, 200);
  }

  const int fd = connect_loopback(server.port());
  const std::string wire =
      "GET /p1 HTTP/1.1\r\n\r\n"
      "GET /p2 HTTP/1.1\r\n\r\n"
      "GET /p3 HTTP/1.1\r\n\r\n"
      "GET /p4 HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::string reply;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.stop();

  const std::size_t p1 = reply.find("echo:/p1");
  const std::size_t p2 = reply.find("echo:/p2");
  const std::size_t p3 = reply.find("echo:/p3");
  const std::size_t p4 = reply.find("echo:/p4");
  ASSERT_NE(p1, std::string::npos) << reply;
  ASSERT_NE(p2, std::string::npos) << reply;
  ASSERT_NE(p3, std::string::npos) << reply;
  ASSERT_NE(p4, std::string::npos) << reply;
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, 6u);
  EXPECT_EQ(stats.responses_2xx, 6u);
  EXPECT_GE(stats.writev_batches, 1u)
      << "pipelined burst should flush as one vectored write";
  EXPECT_GE(stats.buffer_pool.recycled, 1u)
      << "inline responses should recycle pooled head buffers";
}

TEST(Server, AcceptShardCountersSumToConnectionsAccepted) {
  // Each loop accepts on its own SO_REUSEPORT listener; the per-loop accept
  // counters must partition the total.
  ServerOptions options;
  options.event_threads = 2;
  Server server(options, [](const http::Request&) { return http::Response{}; });
  server.start();

  constexpr int kConnections = 12;
  for (int i = 0; i < kConnections; ++i) {
    http::Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/ping").status, 200);
  }
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kConnections));
  ASSERT_EQ(stats.loop_accepts.size(), 2u);
  std::uint64_t sum = 0;
  for (const std::uint64_t accepts : stats.loop_accepts) sum += accepts;
  EXPECT_EQ(sum, stats.connections_accepted);
}

}  // namespace
