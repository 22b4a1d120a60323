// serve_load: closed-loop load generator for the full prm::serve stack over
// real loopback sockets, reporting throughput AND latency percentiles.
//
// Unlike serve_throughput (a fixed batch, wall-clock only), serve_load runs
// each (mix, connections) cell for a fixed duration against a fresh server,
// timestamps every round trip, and reports p50/p95/p99 per cell -- the
// numbers a capacity plan actually needs. Four request mixes:
//
//  * cached  -- POST /v1/fit round-robining over K pre-primed series: every
//               request is a fit-cache hit, so this measures the HTTP + JSON
//               + cache-lookup path (the sharded-serving hot loop).
//  * cold    -- POST /v1/fit with a globally unique jittered series per
//               request: every request runs the multistart optimizer.
//  * ingest  -- alternating POST /v1/streams/{s}/ingest and GET
//               /v1/streams/{s} on a per-connection stream: the live-monitor
//               path (sharded registry + refit scheduling).
//  * ingest_wal -- the same ingest traffic with a write-ahead log on a temp
//               directory (group commit, interval fsync): what durability
//               costs on the live path. Compare against ingest for the
//               WAL's acknowledged-write overhead.
//  * bulk_ingest -- alternating POST /v1/streams/{s}/ingest-batch (16
//               samples per request, one stream lock + one WAL record per
//               batch) and GET /v1/streams/{s}: the batched-append path.
//               Compare samples/sec against ingest for the batching win.
//
// --json emits the same schema compare_bench.py consumes (one entry per
// cell, mean latency as cpu_time/real_time in us), so the CI regression gate
// can diff runs; rps/p50/p95/p99/samples_per_sec ride along as extra
// fields, and the context block carries the summed buffer-pool / vectored-
// write counters the server reported across all cells.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/recessions.hpp"
#include "report/table.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/poller.hpp"
#include "serve/server.hpp"
#include "wal/log.hpp"

namespace {

using namespace prm;
using Clock = std::chrono::steady_clock;

struct Options {
  double seconds = 3.0;
  std::vector<std::size_t> connections = {1, 4, 16, 64, 256, 1024};
  std::vector<std::string> mixes = {"cached", "cold", "ingest"};
  std::size_t cached_series = 64;  ///< Distinct pre-primed series in the cached mix.
  std::size_t server_threads = 0;  ///< 0 = one worker per connection (capped at 16).
  std::size_t event_threads = 0;   ///< 0 = server default.
  std::string json_path;
};

/// Fit-request body for the 1990-93 recession with every value nudged by a
/// distinct epsilon: bit-different doubles hash to a fresh fit-cache key
/// while the optimization problem stays numerically identical in difficulty.
std::string jittered_body(long variant) {
  const data::RecessionDataset& dataset = data::recession("1990-93");
  serve::Json series = serve::Json::object();
  serve::Json times = serve::Json::array();
  for (const double t : dataset.series.times()) times.push_back(serve::Json(t));
  serve::Json values = serve::Json::array();
  const double epsilon = 1e-9 * static_cast<double>(variant);
  for (const double v : dataset.series.values()) {
    values.push_back(serve::Json(v + epsilon));
  }
  series["times"] = std::move(times);
  series["values"] = std::move(values);
  serve::Json body = serve::Json::object();
  body["series"] = std::move(series);
  body["model"] = serve::Json("competing-risks");
  body["holdout"] = serve::Json(dataset.holdout);
  return body.dump();
}

/// Scratch WAL directory for the ingest_wal mix; removed (recursively) when
/// the cell ends. Declared before the App so it outlives the monitor's final
/// checkpoint.
class WalDir {
 public:
  WalDir() {
    const char* base = std::getenv("TMPDIR");
    path_ = std::string(base != nullptr ? base : "/tmp") + "/prm_load_wal_XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr) {
      std::fprintf(stderr, "serve_load: mkdtemp failed\n");
      std::exit(1);
    }
  }
  ~WalDir() { remove_tree(path_); }
  const std::string& path() const { return path_; }

 private:
  static void remove_tree(const std::string& dir) {
    if (DIR* handle = ::opendir(dir.c_str())) {
      while (const dirent* entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((dir + "/" + name).c_str());  // WAL dirs hold only flat files
      }
      ::closedir(handle);
    }
    ::rmdir(dir.c_str());
  }

  std::string path_;
};

/// Samples per POST in the bulk_ingest mix. 16 amortizes the route + lock +
/// WAL-append cost without distorting per-request latency past what a real
/// telemetry shipper would batch.
constexpr long kBatchSamples = 16;

/// One monotone V-shaped sample for the ingest mix: dip, trough, recovery,
/// then a long nominal tail so each stream walks the full phase machine once.
double ingest_value(long i) {
  const double t = static_cast<double>(i % 64);
  if (t < 8.0) return 1.0 + 0.001 * t;
  if (t < 20.0) return 1.0 - 0.03 * (t - 8.0);
  if (t < 44.0) return 0.64 + 0.015 * (t - 20.0);
  return 1.0 + 0.0005 * (t - 44.0);
}

struct CellResult {
  std::string mix;
  std::size_t connections = 0;
  std::size_t requests = 0;
  std::uint64_t samples = 0;  ///< Samples ingested (ingest-flavored mixes only).
  double seconds = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  serve::ServerStats server;  ///< Snapshot taken just before the cell's stop().
  double rps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  double samples_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  }
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Run one (mix, connections) cell against a fresh App + Server.
CellResult run_cell(const std::string& mix, std::size_t connections,
                    const Options& options) {
  std::unique_ptr<WalDir> wal_dir;
  serve::AppOptions app_options;
  if (mix == "ingest_wal") {
    wal_dir = std::make_unique<WalDir>();
    app_options.monitor.wal.dir = wal_dir->path();
    app_options.monitor.wal.fsync = wal::FsyncPolicy::kInterval;
  }
  serve::App app(app_options);
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = options.server_threads > 0
                               ? options.server_threads
                               : std::min<std::size_t>(connections, 16);
  server_options.max_pending = std::max<std::size_t>(connections * 2, 64);
  if (options.event_threads > 0) server_options.event_threads = options.event_threads;
  serve::Server server(server_options, app.async_handler());
  server.start();

  // Cached mix: prime every distinct series once so the timed run is hits only.
  std::vector<std::string> cached_bodies;
  if (mix == "cached") {
    cached_bodies.reserve(options.cached_series);
    serve::http::Client primer("127.0.0.1", server.port());
    for (std::size_t i = 0; i < options.cached_series; ++i) {
      cached_bodies.push_back(jittered_body(static_cast<long>(i + 1)));
      const serve::http::Response response =
          primer.post_json("/v1/fit", cached_bodies.back());
      if (response.status != 200) {
        std::fprintf(stderr, "serve_load: prime failed: %s\n", response.body.c_str());
        std::exit(1);
      }
    }
  }

  std::atomic<long> cold_counter{1000000};  // distinct from every primed body
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::uint64_t> samples_ok(connections, 0);
  for (auto& per_client : latencies) per_client.reserve(1 << 16);

  // The client side is event-driven too. Thread-per-connection load
  // generation pays a scheduler context switch per round trip, which on a
  // small machine bills the harness's own wakeup overhead to the server
  // under test. A few poller-driven threads multiplex every connection
  // instead -- still closed-loop (each connection has exactly one request in
  // flight; the next is sent only after the response completes), so the
  // latency semantics are unchanged while the client CPU goes to send/recv.
  const std::string host_hdr = "127.0.0.1:" + std::to_string(server.port());
  std::vector<std::string> cached_wires;  // full prebuilt wire bytes per series
  if (mix == "cached") {
    cached_wires.reserve(cached_bodies.size());
    for (const std::string& body : cached_bodies) {
      serve::http::Request r;
      r.method = "POST";
      r.target = "/v1/fit";
      r.headers["Content-Type"] = "application/json";
      r.body = body;
      cached_wires.push_back(serve::http::serialize(r, host_hdr));
    }
  }
  const std::size_t client_threads =
      std::clamp<std::size_t>(connections / 128, 1, 4);

  const auto started = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(client_threads);
  for (std::size_t ct = 0; ct < client_threads; ++ct) {
    clients.emplace_back([&, ct] {
      struct Conn {
        int fd = -1;
        std::size_t index = 0;  ///< Global connection index (stream id).
        long i = 0;
        long next_t = 0;  ///< Per-stream sample clock (strictly increasing).
        std::uint64_t pending_samples = 0;
        std::string scratch;   ///< Owned wire bytes for per-request bodies.
        std::string get_wire;  ///< Prebuilt GET for this connection's stream.
        std::string_view out;  ///< Unsent remainder of the current request.
        bool sending = true;
        bool write_armed = false;
        serve::http::ResponseParser parser;
        Clock::time_point t0;
      };

      auto build_request = [&](Conn& conn) {
        conn.t0 = Clock::now();
        conn.pending_samples = 0;
        if (mix == "cached") {
          conn.out =
              cached_wires[static_cast<std::size_t>(conn.i) % cached_wires.size()];
          return;
        }
        if (mix == "cold") {
          serve::http::Request r;
          r.method = "POST";
          r.target = "/v1/fit";
          r.headers["Content-Type"] = "application/json";
          r.body = jittered_body(cold_counter.fetch_add(1));
          conn.scratch = serve::http::serialize(r, host_hdr);
          conn.out = conn.scratch;
          return;
        }
        // Ingest-flavored mixes alternate a stream POST with a stream GET.
        if (conn.i % 2 != 0) {
          conn.out = conn.get_wire;
          return;
        }
        serve::http::Request r;
        r.method = "POST";
        r.headers["Content-Type"] = "application/json";
        const std::string stream = "/v1/streams/s" + std::to_string(conn.index);
        if (mix == "bulk_ingest") {
          r.target = stream + "/ingest-batch";
          std::string body = "{\"samples\":[";
          for (long k = 0; k < kBatchSamples; ++k) {
            if (k > 0) body += ',';
            body += '[' + std::to_string(conn.next_t + k) + ',' +
                    std::to_string(ingest_value(conn.next_t + k)) + ']';
          }
          body += "]}";
          conn.next_t += kBatchSamples;
          conn.pending_samples = static_cast<std::uint64_t>(kBatchSamples);
          r.body = std::move(body);
        } else {
          r.target = stream + "/ingest";
          r.body = "{\"t\":" + std::to_string(conn.next_t) + ",\"value\":" +
                   std::to_string(ingest_value(conn.next_t)) + "}";
          ++conn.next_t;
          conn.pending_samples = 1;
        }
        conn.scratch = serve::http::serialize(r, host_hdr);
        conn.out = conn.scratch;
      };

      serve::Poller poller;
      std::vector<Conn> conns;
      std::vector<std::size_t> by_fd;  // fd -> index into conns
      std::size_t live = 0;

      auto fail_conn = [&](Conn& conn) {
        ++errors;
        poller.remove(conn.fd);
        ::close(conn.fd);
        conn.fd = -1;
        --live;
      };

      /// Push out as many request bytes as the socket accepts; arms write
      /// interest only on short writes. Returns false when the conn died.
      auto try_send = [&](Conn& conn) -> bool {
        while (!conn.out.empty()) {
          const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                                   MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n > 0) {
            conn.out.remove_prefix(static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn.write_armed) {
              poller.modify(conn.fd, true, true);
              conn.write_armed = true;
            }
            return true;
          }
          fail_conn(conn);
          return false;
        }
        conn.sending = false;
        if (conn.write_armed) {
          poller.modify(conn.fd, true, false);
          conn.write_armed = false;
        }
        return true;
      };

      char buf[16384];
      auto on_readable = [&](Conn& conn) {
        while (conn.fd >= 0) {
          const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            fail_conn(conn);
            return;
          }
          if (n == 0) {  // server closed (e.g. overload shed)
            fail_conn(conn);
            return;
          }
          conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          if (conn.parser.failed()) {
            fail_conn(conn);
            return;
          }
          if (!conn.parser.done()) continue;
          const double us = std::chrono::duration<double, std::micro>(
                                Clock::now() - conn.t0)
                                .count();
          if (conn.parser.response().status != 200) {
            ++errors;
          } else {
            latencies[conn.index].push_back(us);
            samples_ok[conn.index] += conn.pending_samples;
          }
          conn.parser.next();
          ++conn.i;
          build_request(conn);
          conn.sending = true;
          if (!try_send(conn)) return;
        }
      };

      for (std::size_t c = ct; c < connections; c += client_threads) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
          ++errors;
          if (fd >= 0) ::close(fd);
          continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        Conn conn;
        conn.fd = fd;
        conn.index = c;
        {
          serve::http::Request g;
          g.method = "GET";
          g.target = "/v1/streams/s" + std::to_string(c);
          conn.get_wire = serve::http::serialize(g, host_hdr);
        }
        conns.push_back(std::move(conn));
      }
      live = conns.size();
      for (std::size_t k = 0; k < conns.size(); ++k) {
        Conn& conn = conns[k];
        if (by_fd.size() <= static_cast<std::size_t>(conn.fd)) {
          by_fd.resize(static_cast<std::size_t>(conn.fd) + 1, SIZE_MAX);
        }
        by_fd[static_cast<std::size_t>(conn.fd)] = k;
        poller.add(conn.fd, true, false);
        build_request(conn);
        try_send(conn);
      }

      std::vector<serve::PollerEvent> events;
      while (!stop.load(std::memory_order_relaxed) && live > 0) {
        poller.wait(events, 50);
        for (const serve::PollerEvent& event : events) {
          if (static_cast<std::size_t>(event.fd) >= by_fd.size()) continue;
          const std::size_t k = by_fd[static_cast<std::size_t>(event.fd)];
          if (k == SIZE_MAX) continue;
          Conn& conn = conns[k];
          if (conn.fd < 0) continue;
          if (event.error) {
            fail_conn(conn);
            continue;
          }
          if (event.writable && conn.sending && !try_send(conn)) continue;
          if (event.readable) on_readable(conn);
        }
      }

      for (Conn& conn : conns) {
        if (conn.fd >= 0) {
          poller.remove(conn.fd);
          ::close(conn.fd);
          conn.fd = -1;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true);
  for (std::thread& client : clients) client.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started).count();
  const serve::ServerStats server_stats = server.stats();
  server.stop();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());

  if (errors.load() > 0) {
    std::fprintf(stderr, "serve_load: %llu request error(s) in %s/conns:%zu\n",
                 static_cast<unsigned long long>(errors.load()), mix.c_str(),
                 connections);
    std::exit(1);
  }

  CellResult result;
  result.mix = mix;
  result.connections = connections;
  result.requests = all.size();
  for (const std::uint64_t n : samples_ok) result.samples += n;
  result.seconds = elapsed;
  result.server = server_stats;
  double sum = 0.0;
  for (const double v : all) sum += v;
  result.mean_us = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  result.p50_us = percentile(all, 0.50);
  result.p95_us = percentile(all, 0.95);
  result.p99_us = percentile(all, 0.99);
  return result;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void write_json(const Options& options, const std::vector<CellResult>& results) {
  std::ofstream out(options.json_path);
  if (!out) {
    std::fprintf(stderr, "serve_load: cannot open %s\n", options.json_path.c_str());
    std::exit(1);
  }
  // Sum the per-cell server counters into the context block: the regression
  // gate diffs the benchmark entries, while the context records whether the
  // buffer pool / vectored-write path actually engaged during the run.
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t pool_misses = 0;
  std::size_t pool_high_water = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t writev_batches = 0;
  for (const CellResult& r : results) {
    pool_acquired += r.server.buffer_pool.acquired;
    pool_recycled += r.server.buffer_pool.recycled;
    pool_misses += r.server.buffer_pool.misses;
    pool_high_water = std::max(pool_high_water, r.server.buffer_pool.high_water);
    writev_calls += r.server.writev_calls;
    writev_batches += r.server.writev_batches;
  }
  out << "{\n  \"context\": {\"benchmark\": \"serve_load\", \"seconds_per_cell\": "
      << options.seconds << ", \"buffer_pool\": {\"acquired\": " << pool_acquired
      << ", \"recycled\": " << pool_recycled << ", \"misses\": " << pool_misses
      << ", \"high_water\": " << pool_high_water << "}, \"writev\": {\"calls\": "
      << writev_calls << ", \"batches\": " << writev_batches
      << "}},\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    const std::string name = "ServeLoad/" + r.mix + "/conns:" +
                             std::to_string(r.connections);
    char buf[640];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"run_name\": \"%s\", "
                  "\"cpu_time\": %.3f, \"real_time\": %.3f, \"time_unit\": \"us\", "
                  "\"rps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
                  "\"p99_us\": %.1f, \"requests\": %zu, \"samples\": %llu, "
                  "\"samples_per_sec\": %.1f}%s\n",
                  name.c_str(), name.c_str(), r.mean_us, r.mean_us, r.rps(),
                  r.p50_us, r.p95_us, r.p99_us, r.requests,
                  static_cast<unsigned long long>(r.samples), r.samples_per_sec(),
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "serve_load: missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seconds") {
      options.seconds = std::atof(next("--seconds").c_str());
    } else if (arg == "--connections") {
      options.connections.clear();
      for (const std::string& item : split_list(next("--connections"))) {
        options.connections.push_back(
            static_cast<std::size_t>(std::atol(item.c_str())));
      }
    } else if (arg == "--mix") {
      options.mixes = split_list(next("--mix"));
    } else if (arg == "--cached-series") {
      options.cached_series =
          static_cast<std::size_t>(std::atol(next("--cached-series").c_str()));
    } else if (arg == "--server-threads") {
      options.server_threads =
          static_cast<std::size_t>(std::atol(next("--server-threads").c_str()));
    } else if (arg == "--event-threads") {
      options.event_threads =
          static_cast<std::size_t>(std::atol(next("--event-threads").c_str()));
    } else if (arg == "--json") {
      options.json_path = next("--json");
    } else {
      std::fprintf(stderr,
                   "usage: serve_load [--seconds S] [--connections 1,4,...,1024]\n"
                   "                  [--mix cached,cold,ingest,ingest_wal,bulk_ingest]\n"
                   "                  [--cached-series K]\n"
                   "                  [--server-threads N] [--event-threads N]\n"
                   "                  [--json PATH]\n");
      return 2;
    }
  }
  if (options.seconds <= 0.0 || options.connections.empty() ||
      options.mixes.empty()) {
    std::fprintf(stderr, "serve_load: nothing to run\n");
    return 2;
  }
  for (const std::string& mix : options.mixes) {
    if (mix != "cached" && mix != "cold" && mix != "ingest" &&
        mix != "ingest_wal" && mix != "bulk_ingest") {
      std::fprintf(stderr, "serve_load: unknown mix '%s'\n", mix.c_str());
      return 2;
    }
  }

  std::vector<CellResult> results;
  for (const std::string& mix : options.mixes) {
    for (const std::size_t connections : options.connections) {
      results.push_back(run_cell(mix, connections, options));
      const CellResult& r = results.back();
      std::fprintf(stderr, "done %s/conns:%zu (%zu requests)\n", mix.c_str(),
                   connections, r.requests);
    }
  }

  report::Table table({"Mix", "Conns", "Requests", "Req/sec", "Smp/sec",
                       "mean (us)", "p50 (us)", "p95 (us)", "p99 (us)"});
  for (const CellResult& r : results) {
    table.add_row({r.mix, std::to_string(r.connections), std::to_string(r.requests),
                   report::Table::fixed(r.rps(), 1),
                   r.samples > 0 ? report::Table::fixed(r.samples_per_sec(), 1) : "-",
                   report::Table::fixed(r.mean_us, 1),
                   report::Table::fixed(r.p50_us, 1), report::Table::fixed(r.p95_us, 1),
                   report::Table::fixed(r.p99_us, 1)});
  }
  std::printf("serve_load: closed-loop load generator, %.1f s per cell\n",
              options.seconds);
  table.print(std::cout);

  if (!options.json_path.empty()) write_json(options, results);
  return 0;
}
