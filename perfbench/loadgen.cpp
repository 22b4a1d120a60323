// prm_bench load: the open-loop load generator.
//
// One thread, one epoll set, at most kConnections keep-alive connections.
// Requests go out on a seeded Poisson schedule whether or not earlier ones
// have been answered (pipelined on their connection), and every latency is
// timed from the moment the request was DUE, so a stalled server is charged
// for the queue it builds. The generator also records how late it itself ran.
//
// The process stays up for a whole benchmark run and takes commands on
// stdin, one per line, answering each with one JSON line on stdout. It
// builds its workload before its first command, so it can be started (and
// its set-up left out of every timing) before the server is spawned:
//
//   connect HOST:PORT [A,B,C]       open the keep-alive connections to the
//                                   server; A,B,C are the cluster nodes a
//                                   "direct" phase sends to
//   run NAME RATE SECONDS WARMUP [direct]
//                                   open-loop phase: WARMUP seconds at RATE
//                                   whose latencies are not reported, then
//                                   SECONDS measured; "direct" sends each
//                                   stream request straight to its owning
//                                   node instead of the router
//   saturate COUNT WARMUP DEPTH     DEPTH requests in flight per connection;
//                                   COUNT completions after WARMUP ones,
//                                   divided by their time = capacity
//   settle                          closed loop: walk every stream to rest
//   probe SECONDS                   forecast-lag probe streams
//   verify                          compare every stream with a reference
//                                   in-process Monitor fed the same samples
//                                   (samples_seen exactly; phase reported)
//   check_fits                      re-fit sampled /v1/fit requests in-process
//   quit
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <strings.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/ring.hpp"
#include "core/fitting.hpp"
#include "live/monitor.hpp"
#include "live/stream_state.hpp"
#include "serve/json.hpp"

namespace prm::bench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (the generator is one thread).
std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Endpoint {
  std::string host;
  int port = 0;
};

Endpoint parse_endpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) throw std::invalid_argument("bad endpoint " + text);
  return {text.substr(0, colon), std::stoi(text.substr(colon + 1))};
}

struct Pending {
  std::size_t slot = 0;  ///< Index into the phase's result arrays (or ~0).
  std::int64_t due = 0;
  bool keep_body = false;  ///< Keep the response body (fit routes, probes).
  bool sampled = false;    ///< A /v1/fit answer to re-check bit for bit.
};

struct Response {
  int status = 0;
  std::string body;
};

/// A keep-alive client connection with pipelined in-flight requests.
class Conn {
 public:
  Conn(Endpoint endpoint, int epoll_fd) : endpoint_(std::move(endpoint)), epoll_fd_(epoll_fd) {}
  ~Conn() { close_fd(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void connect_blocking() {
    close_fd();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(endpoint_.port));
    ::inet_pton(AF_INET, endpoint_.host.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect to " + endpoint_.host + ":" +
                               std::to_string(endpoint_.port) + " failed: " +
                               std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = this;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &ev);
    want_out_ = false;
  }

  void enqueue(const std::string& bytes, Pending pending) {
    out_ += bytes;
    inflight_.push_back(pending);
  }

  /// Write what the socket takes; arm EPOLLOUT for the rest.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ > (1u << 20)) {
      out_.erase(0, out_off_);
      out_off_ = 0;
    }
    const bool want = out_off_ < out_.size();
    if (want != want_out_) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.ptr = this;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
      want_out_ = want;
    }
    return true;
  }

  /// Read and parse; calls done(pending, response) per complete response.
  /// Returns false when the peer closed or the stream broke.
  template <typename Done>
  bool read(Done&& done) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      parse(done);
      return false;  // EOF or error
    }
    return parse(done);
  }

  /// Fail every in-flight request (connection lost) and reconnect.
  template <typename Failed>
  void reset(Failed&& failed) {
    for (const Pending& p : inflight_) failed(p);
    inflight_.clear();
    out_.clear();
    out_off_ = 0;
    in_.clear();
    in_off_ = 0;
    connect_blocking();
  }

  std::size_t inflight() const { return inflight_.size(); }

  void disconnect() { close_fd(); }

 private:
  template <typename Done>
  bool parse(Done& done) {
    for (;;) {
      const std::size_t head_end = in_.find("\r\n\r\n", in_off_);
      if (head_end == std::string::npos) break;
      const std::string_view head(in_.data() + in_off_, head_end - in_off_);
      int status = 0;
      if (head.size() > 12) status = std::atoi(std::string(head.substr(9, 3)).c_str());
      std::size_t length = 0;
      for (std::size_t pos = 0; pos < head.size();) {
        const std::size_t eol = std::min(head.find("\r\n", pos), head.size());
        const std::string_view line = head.substr(pos, eol - pos);
        if (line.size() > 15 && (line[0] == 'C' || line[0] == 'c') &&
            strncasecmp(line.data(), "content-length:", 15) == 0) {
          length = static_cast<std::size_t>(std::atol(std::string(line.substr(15)).c_str()));
        }
        pos = eol + 2;
      }
      const std::size_t body_start = head_end + 4;
      if (in_.size() < body_start + length) break;
      if (inflight_.empty()) return false;  // unsolicited response
      const Pending p = inflight_.front();
      inflight_.pop_front();
      Response r;
      r.status = status;
      if (p.keep_body) r.body.assign(in_, body_start, length);
      done(p, r);
      in_off_ = body_start + length;
    }
    if (in_off_ == in_.size()) {
      in_.clear();
      in_off_ = 0;
    } else if (in_off_ > (1u << 20)) {
      in_.erase(0, in_off_);
      in_off_ = 0;
    }
    return true;
  }

  void close_fd() {
    if (fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd_, nullptr);
      ::close(fd_);
      fd_ = -1;
    }
  }

  Endpoint endpoint_;
  int epoll_fd_;
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  std::deque<Pending> inflight_;
  bool want_out_ = false;
};

void json_array(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ',';
    if (values[i] < 0) {
      out << "null";
    } else {
      std::snprintf(buf, sizeof buf, "%.1f", values[i]);
      out << buf;
    }
  }
  out << ']';
}

/// A member the server's JSON must carry; throws (a failed check) if absent.
const serve::Json& field(const serve::Json& object, std::string_view key) {
  const serve::Json* value = object.find(key);
  if (!value) throw std::runtime_error("response lacks '" + std::string(key) + "'");
  return *value;
}

std::string quoted(const std::string& text) {
  std::string out;
  serve::append_json_string(text, out);
  return out;
}

constexpr std::int64_t kRequestTimeoutNs = 5'000'000'000;

class LoadGenerator {
 public:
  LoadGenerator(std::string workload, std::uint64_t seed)
      : workload_name_(std::move(workload)),
        seed_(seed),
        workload_(Workload::make(workload_name_, seed)),
        epoll_fd_(::epoll_create1(0)) {
    if (is_live(workload_name_)) {
      const auto names = workload_->streams();
      for (std::size_t s = 0; s < names.size(); ++s) {
        stream_index_[names[s]] = s;
        acked_.emplace_back(workload_->prehistory(s));
      }
    }
  }

  ~LoadGenerator() { ::close(epoll_fd_); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void command_loop() {
    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      std::ostringstream out;
      try {
        if (cmd == "connect") {
          std::string target, peers;
          in >> target >> peers;
          connect(parse_endpoint(target), peers);
          out << "{\"connected\":true}";
          std::cout << out.str() << std::endl;
          continue;
        }
        if (conns_.empty() && cmd != "quit") throw std::runtime_error("not connected");
        if (cmd != "run") use_direct(false);
        if (cmd == "run") {
          std::string name, mode;
          double rate = 0, seconds = 0, warmup = 0;
          in >> name >> rate >> seconds >> warmup >> mode;
          run_phase(name, rate, seconds, warmup, mode == "direct", out);
        } else if (cmd == "saturate") {
          std::size_t count = 0, warmup = 0, depth = 0;
          in >> count >> warmup >> depth;
          saturate(count, warmup, depth, out);
        } else if (cmd == "settle") {
          closed_loop("settle", workload_->settle(), out);
        } else if (cmd == "probe") {
          double seconds = 0;
          in >> seconds;
          probe(seconds, out);
        } else if (cmd == "verify") {
          verify(out);
        } else if (cmd == "check_fits") {
          check_fits(out);
        } else if (cmd == "quit") {
          break;
        } else {
          out << "{\"error\":\"unknown command\"}";
        }
      } catch (const std::exception& e) {
        out.str("");
        std::string what;
        serve::append_json_string(e.what(), what);
        out << "{\"error\":" << what << "}";
      }
      std::cout << out.str() << std::endl;
    }
  }

 private:
  struct Sample {
    std::string request_body;
    std::string response_body;
  };

  void connect(const Endpoint& target, const std::string& peer_list) {
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<Conn>(target, epoll_fd_));
      conns_.back()->connect_blocking();
    }
    std::vector<std::string> peers;
    std::stringstream list(peer_list);
    for (std::string peer; std::getline(list, peer, ',');) {
      if (!peer.empty()) peers.push_back(peer);
    }
    if (peers.empty()) return;
    ring_ = cluster::HashRing(peers);
    for (const std::string& peer : peers) {
      direct_index_[peer] = direct_.size();
      direct_.push_back(std::make_unique<Conn>(parse_endpoint(peer), epoll_fd_));
    }
  }

  Conn& conn_for(const BenchRequest& r, bool direct) {
    if (!direct) return *conns_[r.conn];
    Conn& c = *direct_[direct_index_.at(ring_.owner(r.key))];
    return c;
  }

  /// Switch between the front door (router) connections and one connection
  /// per owning node; only one set is open at a time (never more than
  /// kConnections sockets).
  void use_direct(bool direct) {
    if (direct == direct_connected_) return;
    for (auto& c : direct ? conns_ : direct_) c->disconnect();
    for (auto& c : direct ? direct_ : conns_) c->connect_blocking();
    direct_connected_ = direct;
  }

  /// Record an acknowledged ingest so verify() can replay it.
  void on_ack(const BenchRequest& r) {
    if (r.samples.empty()) return;
    auto it = stream_index_.find(r.key);
    if (it == stream_index_.end()) return;
    auto& acked = acked_[it->second];
    acked.insert(acked.end(), r.samples.begin(), r.samples.end());
  }

  static bool is_fit_route(const BenchRequest& r) {
    return r.route == Route::kFit || r.route == Route::kForecast || r.route == Route::kMetrics;
  }

  Pending pending_for(const BenchRequest& r, std::size_t slot) {
    Pending p;
    p.slot = slot;
    p.due = now_ns();
    p.keep_body = is_fit_route(r);
    p.sampled = r.route == Route::kFit && samples_.size() < 48 && (r.id % 53) == 7;
    return p;
  }

  /// Whether `response` answers `r` correctly as far as can be told now: a
  /// 2xx, or the service's documented 400 for a fit whose optimum is not
  /// finite. check_fits() later re-fits each such rejection in process and
  /// requires the same outcome.
  bool answered(const BenchRequest& r, const Pending& p, const Response& response) {
    if (response.status >= 200 && response.status < 300) {
      on_ack(r);
      if (p.sampled) samples_.push_back({r.body, response.body});
      return true;
    }
    if (response.status == 400 && is_fit_route(r) &&
        response.body.find("fit did not converge") != std::string::npos) {
      rejections_.push_back({r.body, response.body});
      return true;
    }
    return false;
  }

  /// Pump the event loop once; `wait_ms` bounds the epoll wait.
  template <typename Done, typename Failed>
  void pump(int wait_ms, Done& done, Failed& failed) {
    epoll_event events[16];
    const int n = ::epoll_wait(epoll_fd_, events, 16, wait_ms);
    for (int i = 0; i < n; ++i) {
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      if (events[i].events & EPOLLOUT) {
        if (!c->flush()) {
          c->reset(failed);
          continue;
        }
      }
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (!c->read(done)) c->reset(failed);
      }
    }
  }

  std::vector<Conn*> all_conns() {
    std::vector<Conn*> out;
    for (auto& c : direct_connected_ ? direct_ : conns_) out.push_back(c.get());
    return out;
  }

  std::size_t total_inflight() {
    std::size_t n = 0;
    for (Conn* c : all_conns()) n += c->inflight();
    return n;
  }

  void run_phase(const std::string& name, double rate, double seconds, double warmup,
                 bool direct, std::ostream& out) {
    use_direct(direct);
    const std::vector<std::int64_t> due = poisson_schedule(
        rate, warmup + seconds, mix64(seed_ ^ std::hash<std::string>{}(name)));
    const auto warm_end = static_cast<std::int64_t>(warmup * 1e9);
    const std::size_t measured_from = static_cast<std::size_t>(
        std::lower_bound(due.begin(), due.end(), warm_end) - due.begin());
    std::vector<BenchRequest> requests;
    std::vector<std::string> wires;
    requests.reserve(due.size());
    wires.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
      requests.push_back(workload_->next());
      wires.push_back(requests.back().wire());
    }
    std::vector<double> latency_us(due.size(), -1.0);
    std::vector<double> late_us(due.size(), -1.0);
    std::size_t failed_count = 0;
    std::size_t acked_samples = 0;

    auto done = [&](const Pending& p, const Response& r) {
      const std::int64_t t = now_ns();
      if (answered(requests[p.slot], p, r)) {
        latency_us[p.slot] = static_cast<double>(t - p.due) / 1e3;
        acked_samples += requests[p.slot].samples.size();
      } else {
        ++failed_count;
      }
    };
    auto failed = [&](const Pending&) { ++failed_count; };

    const std::int64_t start = now_ns() + 2'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>((warmup + seconds) * 1e9);
    std::size_t next = 0;
    std::vector<Conn*> touched;
    while (next < due.size()) {
      const std::int64_t t = now_ns();
      touched.clear();
      while (next < due.size() && start + due[next] <= t) {
        Conn& c = conn_for(requests[next], direct);
        Pending p = pending_for(requests[next], next);
        p.due = start + due[next];
        late_us[next] = static_cast<double>(t - p.due) / 1e3;
        c.enqueue(wires[next], p);
        if (std::find(touched.begin(), touched.end(), &c) == touched.end()) touched.push_back(&c);
        ++next;
      }
      for (Conn* c : touched) {
        if (!c->flush()) c->reset(failed);
      }
      const std::int64_t wait_ns = next < due.size() ? start + due[next] - now_ns() : 0;
      pump(wait_ns > 2'000'000 ? 1 : 0, done, failed);
    }
    const std::int64_t send_end = std::max(now_ns(), end);
    while (total_inflight() > 0 && now_ns() - send_end < kRequestTimeoutNs) {
      pump(1, done, failed);
    }
    if (total_inflight() > 0) {
      for (Conn* c : all_conns()) {
        if (c->inflight() > 0) c->reset(failed);
      }
    }
    // Warm-up requests count as attempted (and failed, if they fail); only
    // the measured part's latencies are reported.
    const auto from = static_cast<std::ptrdiff_t>(measured_from);
    out << "{\"phase\":\"" << name << "\",\"rate\":" << rate << ",\"seconds\":" << seconds
        << ",\"attempted\":" << due.size() << ",\"failed\":" << failed_count
        << ",\"measured\":" << due.size() - measured_from
        << ",\"acked_samples\":" << acked_samples << ",\"routes\":\"";
    for (std::size_t i = measured_from; i < requests.size(); ++i) {
      out << static_cast<int>(requests[i].route);
    }
    out << "\",\"latency_us\":";
    json_array(out, {latency_us.begin() + from, latency_us.end()});
    out << ",\"late_us\":";
    json_array(out, {late_us.begin() + from, late_us.end()});
    out << '}';
  }

  /// Send `requests` one at a time per connection, waiting for each answer.
  void closed_loop(const std::string& name, const std::vector<BenchRequest>& requests,
                   std::ostream& out) {
    std::vector<std::deque<std::size_t>> queues(kConnections);
    for (std::size_t i = 0; i < requests.size(); ++i) queues[requests[i].conn].push_back(i);
    std::size_t failed_count = 0;
    std::size_t outstanding = 0;
    auto send_next = [&](std::uint32_t c) {
      if (queues[c].empty()) return;
      const std::size_t i = queues[c].front();
      queues[c].pop_front();
      conns_[c]->enqueue(requests[i].wire(), pending_for(requests[i], i));
      if (!conns_[c]->flush()) throw std::runtime_error("send failed");
      ++outstanding;
    };
    auto done = [&](const Pending& p, const Response& r) {
      --outstanding;
      if (!answered(requests[p.slot], p, r)) ++failed_count;
      send_next(requests[p.slot].conn);
    };
    auto failed = [&](const Pending&) {
      --outstanding;
      ++failed_count;
    };
    const std::int64_t t0 = now_ns();
    for (std::uint32_t c = 0; c < kConnections; ++c) send_next(c);
    while (outstanding > 0 && now_ns() - t0 < 60'000'000'000) pump(10, done, failed);
    out << "{\"phase\":\"" << name << "\",\"attempted\":" << requests.size()
        << ",\"failed\":" << failed_count + outstanding
        << ",\"seconds\":" << static_cast<double>(now_ns() - t0) / 1e9 << '}';
  }

  /// Saturation over a fixed amount of work: keep `depth` requests in
  /// flight per connection (pipelined) so the server never idles, let
  /// `warmup` requests complete, then time the next `count` completions.
  /// count / time is the rate the backlog can be kept from growing at: the
  /// server's capacity. Every run of a seed sends the same requests.
  void saturate(std::size_t count, std::size_t warmup, std::size_t depth, std::ostream& out) {
    const std::size_t total = warmup + count;
    std::size_t failed_count = 0, outstanding = 0, sent = 0, completions = 0;
    std::int64_t t0 = 0, t1 = 0, cpu0 = 0, cpu1 = 0, progress = now_ns();
    std::map<std::size_t, BenchRequest> inflight;
    auto complete = [&]() {
      --outstanding;
      progress = now_ns();
      ++completions;
      if (completions == warmup) {
        t0 = progress;
        cpu0 = thread_cpu_ns();
      }
      if (completions == total) {
        t1 = progress;
        cpu1 = thread_cpu_ns();
      }
    };
    auto send_next = [&]() {
      BenchRequest r = workload_->next();
      const Pending p = pending_for(r, sent++);
      conns_[r.conn]->enqueue(r.wire(), p);
      if (!conns_[r.conn]->flush()) throw std::runtime_error("send failed");
      inflight.emplace(p.slot, std::move(r));
      ++outstanding;
    };
    auto done = [&](const Pending& p, const Response& r) {
      auto it = inflight.find(p.slot);
      if (!answered(it->second, p, r)) ++failed_count;
      inflight.erase(it);
      complete();
    };
    auto failed = [&](const Pending& p) {
      ++failed_count;
      inflight.erase(p.slot);
      complete();
    };
    if (warmup == 0) {
      t0 = now_ns();
      cpu0 = thread_cpu_ns();
    }
    while (completions < total && now_ns() - progress < kRequestTimeoutNs) {
      while (outstanding < depth * kConnections && sent < total) send_next();
      pump(1, done, failed);
    }
    if (completions < total) {
      failed_count += total - completions;  // never answered
      for (Conn* c : all_conns()) {
        if (c->inflight() > 0) c->reset([](const Pending&) {});
      }
      t1 = now_ns();
      cpu1 = thread_cpu_ns();
    }
    out << "{\"phase\":\"saturate\",\"attempted\":" << total << ",\"failed\":" << failed_count
        << ",\"completed\":" << count << ",\"seconds\":" << static_cast<double>(t1 - t0) / 1e9
        << ",\"generator_busy\":"
        << static_cast<double>(cpu1 - cpu0) / static_cast<double>(std::max<std::int64_t>(1, t1 - t0))
        << '}';
  }

  /// One blocking request/response on connection 0 (no other traffic).
  Response exchange(const BenchRequest& r) {
    Response result;
    bool got = false;
    auto done = [&](const Pending&, const Response& resp) {
      result = resp;
      got = true;
    };
    auto failed = [&](const Pending&) { got = true; };
    Pending p;
    p.keep_body = true;
    conns_[0]->enqueue(r.wire(), p);
    if (!conns_[0]->flush()) throw std::runtime_error("send failed");
    const std::int64_t t0 = now_ns();
    while (!got && now_ns() - t0 < kRequestTimeoutNs) pump(1, done, failed);
    if (!got) throw std::runtime_error("request timed out");
    return result;
  }

  static BenchRequest get_stream(const std::string& name) {
    BenchRequest r;
    r.method = "GET";
    r.target = "/v1/streams/" + name;
    return r;
  }

  /// Closed-loop probe streams: ingest a 4-sample batch, then poll the
  /// stream until its refit counter moves (or it is plainly not in an event).
  void probe(double seconds, std::ostream& out) {
    constexpr std::size_t kProbes = 4;
    constexpr std::size_t kBatch = 4;
    std::vector<std::vector<std::pair<double, double>>> walks;
    std::vector<std::size_t> cursor(kProbes, 0);
    std::vector<std::uint64_t> refits(kProbes, 0);
    for (std::size_t k = 0; k < kProbes; ++k) walks.push_back(probe_samples(seed_, k, 20000));
    std::vector<double> lag_us;
    std::vector<double> poll_gap_us;
    std::size_t attempted = 0, failed_count = 0;
    const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t round = 0; now_ns() < t_end; ++round) {
      const std::size_t k = round % kProbes;
      const std::string name = "probe-" + std::to_string(seed_) + "-" + std::to_string(k);
      BenchRequest r;
      r.method = "POST";
      r.target = "/v1/streams/" + name + "/ingest-batch";
      r.samples.assign(walks[k].begin() + static_cast<std::ptrdiff_t>(cursor[k]),
                       walks[k].begin() + static_cast<std::ptrdiff_t>(cursor[k] + kBatch));
      cursor[k] += kBatch;
      r.body = ingest_body(r.samples, false);
      ++attempted;
      if (exchange(r).status != 200) {
        ++failed_count;
        continue;
      }
      // Poll with three GETs pipelined, so consecutive snapshots are taken
      // one handler apart rather than one round trip apart.
      const std::int64_t acked = now_ns();
      std::int64_t last_poll = acked;
      bool finished = false;
      std::size_t polls = 0;
      const std::string poll_wire = get_stream(name).wire();
      auto done = [&](const Pending&, const Response& snap) {
        --polls;
        if (finished) return;
        const std::int64_t t = now_ns();
        if (snap.status != 200) {
          ++failed_count;
          finished = true;
          return;
        }
        poll_gap_us.push_back(static_cast<double>(t - last_poll) / 1e3);
        last_poll = t;
        const serve::Json doc = serve::Json::parse(snap.body);
        const serve::Json& counts = field(doc, "refits");
        const auto seen = static_cast<std::uint64_t>(field(counts, "total").as_number() +
                                                     field(counts, "failed").as_number());
        if (seen > refits[k]) {
          refits[k] = seen;
          lag_us.push_back(static_cast<double>(t - acked) / 1e3);
          finished = true;
        } else if (!field(doc, "event_active").as_bool() || t - acked > 20'000'000) {
          finished = true;
        }
      };
      auto failed = [&](const Pending&) {
        --polls;
        ++failed_count;
        finished = true;
      };
      while (!finished || polls > 0) {
        while (!finished && polls < 3) {
          Pending p;
          p.keep_body = true;
          conns_[0]->enqueue(poll_wire, p);
          ++polls;
          ++attempted;
        }
        if (!conns_[0]->flush()) throw std::runtime_error("send failed");
        pump(1, done, failed);
      }
    }
    out << "{\"phase\":\"probe\",\"attempted\":" << attempted << ",\"failed\":" << failed_count
        << ",\"lag_us\":";
    json_array(out, lag_us);
    out << ",\"poll_gap_us\":";
    json_array(out, poll_gap_us);
    out << '}';
  }

  /// Whether a server phase that trails the reference's is explained by the
  /// server's own fitted recovery time: RESTORED is only declared once the
  /// aligned time passes the predicted t_r (see live/stream_state.hpp), and
  /// NOMINAL follows once a fresh baseline is frozen after that.
  static bool gated_by_prediction(const serve::Json& doc, const std::string& server_phase,
                                  live::StreamPhase reference) {
    const serve::Json* fit = doc.find("fit");
    const serve::Json* onset = doc.find("onset_time");
    if (!fit || !fit->is_object() || !onset || !onset->is_number()) return false;
    const serve::Json* predicted = fit->find("predicted_recovery_time");
    if (!predicted || !predicted->is_number()) return false;
    const double t_al = field(doc, "last_time").as_number() - onset->as_number();
    const double t_r = predicted->as_number();
    const bool reference_ahead = reference == live::StreamPhase::kRestored ||
                                 reference == live::StreamPhase::kNominal;
    if (server_phase == "RECOVERING") return reference_ahead && t_al < t_r;
    if (server_phase == "RESTORED") {
      const double rebaseline = static_cast<double>(live::StreamConfig{}.cusum.baseline +
                                                    live::StreamConfig{}.confirm_samples + 1);
      return reference == live::StreamPhase::kNominal && t_al < t_r + rebaseline;
    }
    return false;
  }

  /// Feed a reference Monitor every acknowledged sample in order and compare
  /// each stream with the server's snapshot. samples_seen must match exactly.
  /// The phase is compared too, but a difference is counted apart, not as a
  /// failure: the server refits asynchronously, and RESTORED waits for the
  /// latest fitted t_r (live/stream_state.hpp), so which refit had landed
  /// when a stream recovered decides when its next baseline froze, and from
  /// there its later phases. No reference fed the same samples can know
  /// that. Differences the server's own snapshot explains (its predicted t_r
  /// still ahead) are counted as gated.
  void verify(std::ostream& out) {
    live::MonitorOptions options;
    options.threads = 1;
    options.batched_refits = true;
    options.refit_every = std::size_t{1} << 40;  // the reference never refits
    live::Monitor reference(options);
    const auto names = workload_->streams();
    for (std::size_t s = 0; s < names.size(); ++s) {
      for (const auto& [t, v] : acked_[s]) reference.ingest(names[s], t, v);
    }
    std::size_t mismatches = 0, attempted = 0, gated = 0, diverged = 0;
    std::string first;
    for (const std::string& name : names) {
      ++attempted;
      const Response r = exchange(get_stream(name));
      const live::StreamSnapshot want = reference.snapshot(name);
      std::string got_phase;
      double got_seen = -1;
      try {
        const serve::Json doc = serve::Json::parse(r.body);
        got_phase = field(doc, "phase").as_string();
        got_seen = field(doc, "samples_seen").as_number();
        if (got_phase != live::to_string(want.phase)) {
          ++(gated_by_prediction(doc, got_phase, want.phase) ? gated : diverged);
        }
      } catch (const std::exception&) {
        got_seen = -1;  // unreadable snapshot: a mismatch
      }
      if (r.status != 200) got_seen = -1;
      if (got_seen != static_cast<double>(want.samples_seen)) {
        ++mismatches;
        if (first.empty()) {
          first = name + ": server samples_seen " + std::to_string(got_seen) +
                  " reference " + std::to_string(want.samples_seen);
        }
      }
    }
    out << "{\"phase\":\"verify\",\"attempted\":" << attempted << ",\"failed\":" << mismatches
        << ",\"phase_gated\":" << gated << ",\"phase_diverged\":" << diverged
        << ",\"first_mismatch\":" << quoted(first) << "}";
  }

  /// Re-run each sampled /v1/fit request through core::fit_model in-process
  /// (serial solver) and require bit-identical parameters and SSE; re-run
  /// every fit the server rejected as not converged and require the same.
  void check_fits(std::ostream& out) {
    std::size_t mismatches = 0;
    std::string first;
    auto refit = [](const serve::Json& request, std::string& name) {
      const serve::Json& series_json = field(request, "series");
      std::vector<double> values;
      for (const serve::Json& v : field(series_json, "values").as_array()) {
        values.push_back(v.as_number());
      }
      name = field(series_json, "name").as_string();
      core::FitOptions options;
      options.multistart.threads = 1;
      return core::fit_model(field(request, "model").as_string(),
                             data::PerformanceSeries(name, std::move(values)),
                             static_cast<std::size_t>(field(request, "holdout").as_number()),
                             options);
    };
    for (const Sample& sample : samples_) {
      std::string name;
      const core::FitResult fit = refit(serve::Json::parse(sample.request_body), name);
      bool ok = false;
      try {
        const serve::Json response = serve::Json::parse(sample.response_body);
        const double sse = field(field(response, "solver"), "sse").as_number();
        const auto& params = field(response, "parameter_vector").as_array();
        ok = std::bit_cast<std::uint64_t>(fit.sse) == std::bit_cast<std::uint64_t>(sse) &&
             params.size() == fit.parameters().size();
        for (std::size_t i = 0; ok && i < params.size(); ++i) {
          ok = std::bit_cast<std::uint64_t>(params[i].as_number()) ==
               std::bit_cast<std::uint64_t>(fit.parameters()[i]);
        }
      } catch (const std::exception&) {
        ok = false;  // unreadable response: a mismatch
      }
      if (!ok) {
        ++mismatches;
        if (first.empty()) first = name;
      }
    }
    for (const Sample& rejection : rejections_) {
      std::string name;
      if (refit(serve::Json::parse(rejection.request_body), name).success()) {
        ++mismatches;  // the server refused a fit the reference completes
        if (first.empty()) first = name;
      }
    }
    out << "{\"phase\":\"check_fits\",\"attempted\":" << samples_.size() + rejections_.size()
        << ",\"failed\":" << mismatches << ",\"rejected\":" << rejections_.size()
        << ",\"first_mismatch\":" << quoted(first) << "}";
  }

  std::string workload_name_;
  std::uint64_t seed_;
  std::unique_ptr<Workload> workload_;
  int epoll_fd_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> direct_;
  std::map<std::string, std::size_t> direct_index_;
  bool direct_connected_ = false;
  cluster::HashRing ring_;
  std::map<std::string, std::size_t> stream_index_;
  std::vector<std::vector<std::pair<double, double>>> acked_;
  std::vector<Sample> samples_;     ///< Sampled /v1/fit answers.
  std::vector<Sample> rejections_;  ///< Fits the server answered "did not converge".
};

}  // namespace

int run_load(const std::string& workload, std::uint64_t seed) {
  LoadGenerator generator(workload, seed);
  std::cout << "{\"ready\":true}" << std::endl;
  generator.command_loop();
  return 0;
}

}  // namespace prm::bench
