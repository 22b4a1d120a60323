// prm_bench: the C++ half of the prm service benchmark (run.py drives it).
//
//   prm_bench load --workload W --seed N
//       open-loop load generator; takes connect and phase commands on stdin
//       (loadgen.cpp)
//   prm_bench trace --workload W --seed N --seconds S --work DIR --spans FILE
//                   [--fit-threads T]
//       traced in-process replay; prints per-layer figures as JSON (trace.cpp)
//   prm_bench prehistory --workload W --seed N --dir DIR
//       write the WAL (snapshot + log tail) the live server recovers at boot
//   prm_bench recover-check --dir DIR
//       Monitor::recover the directory and compare save() with the snapshot
//       the server wrote at its clean shutdown
//   prm_bench digest --workload W --seed N --count K
//       hash of the first K generated requests (request-stream determinism)
//   prm_bench selftest
//       unit checks of the generator side (schedule, determinism)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "live/monitor.hpp"
#include "wal/compact.hpp"

namespace prm::bench {

int run_load(const std::string& workload, std::uint64_t seed);
int run_trace(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& work_dir, const std::string& spans_path, int fit_threads);

void write_prehistory(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  auto generator = Workload::make(workload, seed);
  const std::vector<std::string> names = generator->streams();
  std::vector<std::vector<std::pair<double, double>>> samples;
  for (std::size_t s = 0; s < names.size(); ++s) samples.push_back(generator->prehistory(s));
  live::MonitorOptions options;
  options.wal.dir = dir;
  live::Monitor monitor(options);
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (std::size_t i = 0; i < kPrehistoryCheckpointed && i < samples[s].size(); ++i) {
      monitor.ingest(names[s], samples[s][i].first, samples[s][i].second);
    }
  }
  monitor.checkpoint();  // the snapshot part
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (std::size_t i = kPrehistoryCheckpointed; i < samples[s].size(); ++i) {
      monitor.ingest(names[s], samples[s][i].first, samples[s][i].second);
    }
  }
  monitor.drain();  // the log tail stays un-checkpointed: recovery replays it
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int recover_check(const std::string& dir) {
  const std::string snapshot = read_file(wal::snapshot_path(dir));
  live::MonitorOptions options;
  options.wal.dir = dir;
  std::string saved;
  std::size_t streams = 0;
  {
    auto monitor = live::Monitor::recover(options);
    std::ostringstream out;
    monitor->save(out);
    saved = out.str();
    streams = monitor->stream_count();
    monitor->shutdown();
  }
  const bool same = !snapshot.empty() && saved == snapshot;
  std::cout << "{\"attempted\":1,\"failed\":" << (same ? 0 : 1) << ",\"streams\":" << streams
            << ",\"bytes\":" << saved.size() << "}" << std::endl;
  return 0;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest(const std::string& workload, std::uint64_t seed, std::size_t count) {
  auto generator = Workload::make(workload, seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto names = generator->streams();
  for (std::size_t s = 0; s < names.size(); ++s) {
    for (const auto& [t, v] : generator->prehistory(s)) {
      h = fnv1a(h, names[s] + ingest_body({{t, v}}, true));
    }
  }
  for (std::size_t i = 0; i < count; ++i) h = fnv1a(h, generator->next().wire());
  return h;
}

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Open-loop schedule: deterministic, strictly ordered, inside the window,
  // Poisson rate within 5% over 20k arrivals.
  const auto a = poisson_schedule(2000.0, 10.0, 7);
  const auto b = poisson_schedule(2000.0, 10.0, 7);
  const auto c = poisson_schedule(2000.0, 10.0, 8);
  expect(a == b, "schedule is deterministic in its seed");
  expect(a != c, "schedule changes with the seed");
  expect(std::fabs(static_cast<double>(a.size()) - 20000.0) < 1000.0, "schedule rate");
  bool ordered = true;
  for (std::size_t i = 1; i < a.size(); ++i) ordered = ordered && a[i] >= a[i - 1];
  expect(ordered && a.front() >= 0 && a.back() < 10'000'000'000LL, "schedule ordered in window");
  expect(poisson_schedule(0.0, 1.0, 1).empty(), "zero rate sends nothing");
  // Request streams: byte-identical per seed, distinct across seeds, and a
  // live stream's samples strictly increasing in time.
  for (const char* w : {"fit_cold", "live_ingest", "routed_ingest"}) {
    expect(digest(w, 11, 300) == digest(w, 11, 300), "digest is deterministic");
    expect(digest(w, 11, 300) != digest(w, 12, 300), "digest differs across seeds");
  }
  auto live = Workload::make("live_ingest", 3);
  std::map<std::string, double> last;
  bool increasing = true;
  for (int i = 0; i < 5000; ++i) {
    const BenchRequest r = live->next();
    for (const auto& [t, v] : r.samples) {
      auto it = last.find(r.key);
      increasing = increasing && (it == last.end() || t > it->second) && std::isfinite(v);
      last[r.key] = t;
    }
    increasing = increasing && r.conn == std::stoul(r.key.substr(7)) % kConnections;
  }
  expect(increasing, "stream samples increase in time and keep their connection");
  std::cout << "{\"selftest_failures\":" << failures << "}" << std::endl;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prm::bench

int main(int argc, char** argv) {
  using namespace prm::bench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: prm_bench load|trace|prehistory|recover-check|digest|selftest ...\n");
    return 1;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> options;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "prm_bench: unexpected argument '%s'\n", argv[i]);
      return 1;
    }
    options[argv[i] + 2] = argv[i + 1];
  }
  auto get = [&](const std::string& key, const std::string& fallback = "") {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  };
  try {
    const std::string workload = get("workload");
    const std::uint64_t seed = std::stoull(get("seed", "0"));
    if (command == "selftest") return selftest();
    if (command == "recover-check") return recover_check(get("dir"));
    if (!is_workload(workload)) {
      std::fprintf(stderr, "prm_bench: unknown workload '%s'\n", workload.c_str());
      return 1;
    }
    if (command == "load") return run_load(workload, seed);
    if (command == "trace") {
      return run_trace(workload, seed, std::stod(get("seconds", "4")), get("work"),
                       get("spans"), std::stoi(get("fit-threads", "0")));
    }
    if (command == "prehistory") {
      write_prehistory(workload, seed, get("dir"));
      return 0;
    }
    if (command == "digest") {
      std::printf("%016llx\n", static_cast<unsigned long long>(
                                   digest(workload, seed, std::stoul(get("count", "1000")))));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prm_bench %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "prm_bench: unknown command '%s'\n", command.c_str());
  return 1;
}
