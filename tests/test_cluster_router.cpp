// Cluster routing end-to-end over real sockets: two ring nodes plus a thin
// router, all in-process.
//
//  * A node answers stream routes it owns and 307-redirects the rest with a
//    Location on the owning node; its Monitor refuses to create non-owned
//    streams (the filter behind the redirect).
//  * The router proxies every stream route to the owner through the
//    UpstreamPool's pooled keep-alive connections and merges /v1/streams
//    across nodes.
//  * Killing a node: routed requests for its streams fail fast with 502
//    (DOWN cooldown, no per-request timeout pileup) while every other
//    stream keeps answering 200 -- the CI smoke leg's contract.
//  * node, router, and a bare ring all agree on ownership over HTTP (the
//    determinism wire contract).
//  * A router torn down as prm_cli serve does it (server stopped, then its
//    upstream pool, then the server and the app destroyed) with a proxied
//    request still in flight touches no freed memory.
//  * http::Client's connect deadline fires instead of hanging (satellite of
//    the same change: the catch-up client must not block on a dead peer).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace {

using namespace prm;
using serve::Json;

struct Node {
  std::unique_ptr<serve::App> app;
  std::unique_ptr<serve::Server> server;
  std::string address;

  void start(std::size_t threads = 2) {
    app = std::make_unique<serve::App>();
    serve::ServerOptions options;
    options.port = 0;
    options.threads = threads;
    server = std::make_unique<serve::Server>(options, app->async_handler());
    server->start();
    address = "127.0.0.1:" + std::to_string(server->port());
  }

  /// prm_cli serve's teardown: stop the server, then fail a router's
  /// requests still in flight upstream while the server can take their
  /// completions. The members are then destroyed server first.
  void stop() {
    server->stop();
    if (app->cluster() && app->cluster()->upstreams()) app->cluster()->upstreams()->stop();
  }
};

class ClusterRouter : public ::testing::Test {
 protected:
  void SetUp() override {
    node1_.start();
    node2_.start();
    router_.start();
    peers_ = {node1_.address, node2_.address};

    cluster::ClusterOptions node_options;
    node_options.peers = peers_;
    node_options.self = node1_.address;
    node1_.app->enable_cluster(node_options);
    node_options.self = node2_.address;
    node2_.app->enable_cluster(node_options);

    cluster::ClusterOptions router_options;
    router_options.peers = peers_;
    router_options.router = true;
    router_options.upstream.connect_timeout_ms = 1000;
    router_options.upstream.request_timeout_ms = 5000;
    router_options.upstream.retry_down_ms = 200;
    router_.app->enable_cluster(router_options);
  }

  void TearDown() override {
    router_.stop();
    if (node2_up_) node2_.stop();
    node1_.stop();
  }

  /// A stream name the ring maps to `owner` (deterministic, so every test
  /// run picks the same names).
  std::string stream_owned_by(const std::string& owner, const char* tag) {
    const cluster::Cluster& cluster = *router_.app->cluster();
    for (int i = 0; i < 1000; ++i) {
      std::string name = std::string(tag) + "-" + std::to_string(i);
      if (cluster.owner(name) == owner) return name;
    }
    throw std::logic_error("ring starved one node of 1000 names");
  }

  serve::http::Client client_for(const Node& node) {
    return {"127.0.0.1", node.server->port()};
  }

  Node node1_;
  Node node2_;
  Node router_;
  std::vector<std::string> peers_;
  bool node2_up_ = true;
};

TEST_F(ClusterRouter, NodeRedirectsNonOwnedStreamsToTheOwner) {
  const std::string foreign = stream_owned_by(node2_.address, "redir");
  auto c = client_for(node1_);
  const serve::http::Response response =
      c.post_json("/v1/streams/" + foreign + "/ingest", "{\"t\":0,\"value\":1.0}");
  EXPECT_EQ(response.status, 307);
  ASSERT_TRUE(response.headers.count("location"));
  EXPECT_EQ(response.headers.at("location"),
            "http://" + node2_.address + "/v1/streams/" + foreign + "/ingest");
  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.find("owner")->as_string(), node2_.address);

  // The Monitor itself is the backstop: even code that bypasses routing
  // cannot create a non-owned stream on this node.
  EXPECT_THROW(node1_.app->monitor().ingest(foreign, 0.0, 1.0), std::domain_error);

  const Json metrics = Json::parse(c.get("/metrics").body);
  EXPECT_GE(metrics.find("cluster")->find("redirects")->as_number(), 1.0);
  EXPECT_EQ(metrics.find("cluster")->find("mode")->as_string(), "node");
}

TEST_F(ClusterRouter, OwnedStreamsAreServedLocallyWithoutRedirect) {
  const std::string local = stream_owned_by(node1_.address, "local");
  auto c = client_for(node1_);
  const serve::http::Response response =
      c.post_json("/v1/streams/" + local + "/ingest", "{\"t\":0,\"value\":1.0}");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(c.get("/v1/streams/" + local).status, 200);
}

TEST_F(ClusterRouter, RouterProxiesEveryStreamRouteToItsOwner) {
  auto c = client_for(router_);
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back("proxy-" + std::to_string(i));
  for (const std::string& name : names) {
    const serve::http::Response response = c.post_json(
        "/v1/streams/" + name + "/ingest",
        "{\"samples\":[[0,1.0],[1,0.9],[2,0.8]]}");
    ASSERT_EQ(response.status, 200) << name << ": " << response.body;
    EXPECT_EQ(Json::parse(response.body).find("stream")->as_string(), name);
  }
  // Every stream reads back through the router, and lives ONLY on its owner.
  const cluster::Cluster& ring_view = *router_.app->cluster();
  auto c1 = client_for(node1_);
  auto c2 = client_for(node2_);
  for (const std::string& name : names) {
    EXPECT_EQ(c.get("/v1/streams/" + name).status, 200);
    const bool on_node1 = ring_view.owner(name) == node1_.address;
    EXPECT_EQ(c1.get("/v1/streams/" + name).status, on_node1 ? 200 : 307);
    EXPECT_EQ(c2.get("/v1/streams/" + name).status, on_node1 ? 307 : 200);
  }
  // DELETE proxies too.
  serve::http::Request remove;
  remove.method = "DELETE";
  remove.target = "/v1/streams/" + names[0];
  remove.version = "HTTP/1.1";
  EXPECT_EQ(c.request(remove).status, 200);
  EXPECT_EQ(c.get("/v1/streams/" + names[0]).status, 404);

  const Json metrics = Json::parse(c.get("/metrics").body);
  const Json* cluster_metrics = metrics.find("cluster");
  EXPECT_EQ(cluster_metrics->find("mode")->as_string(), "router");
  EXPECT_GE(cluster_metrics->find("proxied")->as_number(), 8.0);
  EXPECT_GE(
      cluster_metrics->find("upstreams")->find("forwarded")->as_number(), 8.0);
}

TEST_F(ClusterRouter, RouterMergesStreamListsAcrossNodes) {
  auto c = client_for(router_);
  const std::string s1 = stream_owned_by(node1_.address, "merge");
  const std::string s2 = stream_owned_by(node2_.address, "merge");
  ASSERT_EQ(c.post_json("/v1/streams/" + s1 + "/ingest", "{\"t\":0,\"value\":1}")
                .status, 200);
  ASSERT_EQ(c.post_json("/v1/streams/" + s2 + "/ingest", "{\"t\":0,\"value\":1}")
                .status, 200);
  const Json list = Json::parse(c.get("/v1/streams").body);
  std::vector<std::string> streams;
  for (const Json& entry : list.find("streams")->as_array()) {
    streams.push_back(entry.as_string());
  }
  EXPECT_NE(std::find(streams.begin(), streams.end(), s1), streams.end());
  EXPECT_NE(std::find(streams.begin(), streams.end(), s2), streams.end());
  EXPECT_TRUE(list.find("unavailable")->as_array().empty());
}

TEST_F(ClusterRouter, DeadNodeFailsFastWhileSurvivorsKeepServing) {
  auto c = client_for(router_);
  const std::string on_live = stream_owned_by(node1_.address, "ha");
  const std::string on_dead = stream_owned_by(node2_.address, "ha");
  ASSERT_EQ(c.post_json("/v1/streams/" + on_live + "/ingest",
                        "{\"t\":0,\"value\":1}").status, 200);
  ASSERT_EQ(c.post_json("/v1/streams/" + on_dead + "/ingest",
                        "{\"t\":0,\"value\":1}").status, 200);

  node2_.server->stop();
  node2_up_ = false;

  // First request eats the connect failure, marks the peer DOWN...
  EXPECT_EQ(c.get("/v1/streams/" + on_dead).status, 502);
  // ...and the cooldown makes the following ones fail fast, not pile up.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.get("/v1/streams/" + on_dead).status, 502);
    EXPECT_EQ(c.get("/v1/streams/" + on_live).status, 200);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);

  const Json list = Json::parse(c.get("/v1/streams").body);
  const auto& unavailable = list.find("unavailable")->as_array();
  ASSERT_EQ(unavailable.size(), 1u);
  EXPECT_EQ(unavailable[0].as_string(), node2_.address);

  const Json metrics = Json::parse(c.get("/metrics").body);
  const Json* upstreams = metrics.find("cluster")->find("upstreams");
  EXPECT_GE(metrics.find("cluster")->find("proxy_errors")->as_number(), 6.0);
  const auto& down = upstreams->find("down")->as_array();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].as_string(), node2_.address);
}

TEST_F(ClusterRouter, EveryMemberAgreesOnOwnershipOverHttp) {
  auto c1 = client_for(node1_);
  auto c2 = client_for(node2_);
  auto cr = client_for(router_);
  for (int i = 0; i < 20; ++i) {
    const std::string target = "/v1/cluster/owner/agree-" + std::to_string(i);
    const std::string o1 =
        Json::parse(c1.get(target).body).find("owner")->as_string();
    const std::string o2 =
        Json::parse(c2.get(target).body).find("owner")->as_string();
    const std::string oroute =
        Json::parse(cr.get(target).body).find("owner")->as_string();
    EXPECT_EQ(o1, o2);
    EXPECT_EQ(o1, oroute);
  }
  const Json ring = Json::parse(c1.get("/v1/cluster/ring").body);
  EXPECT_EQ(ring.find("mode")->as_string(), "node");
  EXPECT_EQ(ring.find("self")->as_string(), node1_.address);
  EXPECT_EQ(ring.find("nodes")->as_array().size(), 2u);
}

TEST_F(ClusterRouter, ClusterRoutesAnswer404WhenClusteringIsOff) {
  Node plain;
  plain.start(1);
  auto c = client_for(plain);
  EXPECT_EQ(c.get("/v1/cluster/ring").status, 404);
  EXPECT_EQ(c.get("/v1/cluster/owner/x").status, 404);
  plain.server->stop();
}

TEST(ClusterShutdown, RouterTeardownWithAProxiedRequestInFlight) {
  // A peer that parks every completion, so the proxied request is still in
  // flight upstream when the router goes down. Destroying the router's
  // Server before its App used to fail that request into the freed Server
  // (ASan: heap-use-after-free in Server::record_status).
  std::mutex m;
  std::condition_variable cv;
  std::vector<serve::Server::Completion> parked;
  serve::ServerOptions peer_options;
  peer_options.port = 0;
  peer_options.threads = 1;
  serve::Server peer(peer_options,
                     serve::Server::AsyncHandler(
                         [&](const serve::http::Request&, serve::Server::Completion done) {
                           std::lock_guard<std::mutex> lock(m);
                           parked.push_back(std::move(done));
                           cv.notify_all();
                         }));
  peer.start();

  Node router;
  router.start();
  cluster::ClusterOptions options;
  options.peers = {"127.0.0.1:" + std::to_string(peer.port())};
  options.router = true;
  router.app->enable_cluster(options);

  // The client sends one GET and never reads: its answer can only come after
  // teardown has begun.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(router.server->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /v1/streams/x HTTP/1.1\r\nHost: router\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  {
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return !parked.empty(); }))
        << "the proxied request never reached the peer";
  }

  router.stop();
  EXPECT_EQ(router.app->cluster()->upstreams()->stats().connections_open, 0u);
  router.server.reset();
  router.app.reset();
  ::close(fd);

  std::lock_guard<std::mutex> lock(m);
  EXPECT_EQ(parked.size(), 1u);
  for (serve::Server::Completion& done : parked) done(serve::http::Response{});
  parked.clear();
  peer.stop();
}

TEST(UpstreamPool, ForwardRacingStopCompletesEveryRequestOnce) {
  // forward() wakes the reactor after releasing the submission lock, so its
  // wakeup can race a concurrent stop(). Every callback must fire exactly
  // once, the pool must restart cleanly, and under TSan the wakeup must not
  // race the teardown of the fd it writes to.
  Node peer;
  peer.start(1);
  cluster::UpstreamPool pool;
  constexpr int kCycles = 30;
  constexpr int kSenders = 3;
  constexpr int kPerSender = 100;
  std::atomic<int> fired{0};
  std::atomic<int> ok{0};
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    pool.start();
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back([&] {
        for (int i = 0; i < kPerSender; ++i) {
          serve::http::Request request;
          request.method = "GET";
          request.target = "/healthz";
          pool.forward(peer.address, std::move(request),
                       [&](bool success, serve::http::Response) {
                         fired.fetch_add(1);
                         if (success) ok.fetch_add(1);
                       });
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (cycle % 5)));
    pool.stop();
    for (std::thread& sender : senders) sender.join();
    EXPECT_EQ(fired.load(), (cycle + 1) * kSenders * kPerSender) << "cycle " << cycle;
  }
  EXPECT_GT(ok.load(), 0) << "no forward reached the peer";
  EXPECT_EQ(pool.stats().connections_open, 0u);
  peer.server->stop();
}

TEST(HttpClientDeadline, ConnectDeadlineFiresOnASaturatedBacklog) {
  // A loopback listener that never accepts, with a zero backlog, saturated
  // by parked connects: the kernel drops further SYNs, so a new connect can
  // only end by deadline. This is the hang the connect timeout exists for
  // (a dead-but-routable cluster peer).
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::vector<int> parked;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    parked.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  bool threw = false;
  try {
    serve::http::Client client("127.0.0.1", port, /*connect_timeout_ms=*/300);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  for (const int fd : parked) ::close(fd);
  ::close(listener);
  if (!threw) {
    GTEST_SKIP() << "kernel completed the handshake despite a full backlog";
  }
  EXPECT_LT(elapsed_ms, 5000) << "connect deadline did not bound the wait";
}

}  // namespace
