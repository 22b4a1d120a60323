// prm_bench trace: the traced in-process replay.
//
// Replays a workload's request stream (same name, same seed, same order as
// the load run) through the modules' public functions, recording one span
// per call: name, start, end, parent span and request id. Nothing inside
// src/ is instrumented; every span wraps a call made from this file.
//
// Per request the replay runs the real handler (serve::App::handle) and,
// beside it, the same work decomposed into the layers App composes, so each
// layer gets its own span: http::RequestParser, Json::parse, the response and
// fit caches, core::fit_model / forecast_horizon / predictive_metrics,
// live::Monitor and cluster::HashRing::owner. Both monitors (the App's and
// the mirror) run batched refits, so no background refit thread competes
// with the timed calls: each due refit runs in the replay thread right after
// its request, the App's untimed and the mirror's as the live.refit span.
// The mirror has no WAL, so its spans are the monitor's own time; the WAL is
// timed once, after the replay, by appending the records the App's monitor
// wrote to a fresh wal::Wal.
//
// The replay runs twice over the same requests, first with span recording
// off and then on; the gap between the two per-request medians is the
// tracing overhead. Spans stay in memory and are written out at exit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/ring.hpp"
#include "core/fitting.hpp"
#include "core/forecast.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "live/monitor.hpp"
#include "serve/fit_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/response_cache.hpp"
#include "wal/log.hpp"
#include "wal/record.hpp"
#include "wal/segment.hpp"

namespace prm::bench {

void write_prehistory(const std::string& workload, std::uint64_t seed, const std::string& dir);

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t parent = -1;  ///< Index of the parent span, -1 for a root.
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Open a span; returns its index (-1 when tracing is off).
  std::int64_t open(const std::string& name, std::int64_t parent, std::uint64_t request) {
    if (!on_) return -1;
    auto [it, inserted] = names_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    spans_.push_back({it->second, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now_ns();
  }
  /// Record a span timed by the caller (kept only when the call did work).
  void add(const std::string& name, std::int64_t start, std::int64_t parent,
           std::uint64_t request) {
    const std::int64_t span = open(name, parent, request);
    if (span >= 0) spans_[static_cast<std::size_t>(span)].start = start;
    close(span);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<std::string> names() const {
    std::vector<std::string> out(names_.size());
    for (const auto& [name, id] : names_) out[id] = name;
    return out;
  }

 private:
  bool on_;
  std::map<std::string, std::uint32_t> names_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t parent, std::uint64_t request)
      : tracer_(tracer), index_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// One fit_model call of the replay, kept to time again at 1 thread.
struct FitInput {
  std::string model;
  data::PerformanceSeries series;
  std::size_t holdout = 0;
};

struct FitDiagnostics {
  std::uint64_t fits = 0, starts = 0, iterations = 0, evals = 0;
};

/// Everything one replay pass owns. Built fresh per pass so the untraced and
/// traced passes start from identical state.
class Replay {
 public:
  Replay(const std::string& workload, std::uint64_t seed, const std::string& work_dir,
         int fit_threads, bool traced)
      : tracer_(traced),
        fit_threads_(fit_threads),
        ring_({"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}) {
    namespace fs = std::filesystem;
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    serve::AppOptions app_options;
    app_options.fit_threads = fit_threads;
    app_options.monitor.batched_refits = true;
    live::MonitorOptions mirror_options;
    mirror_options.batched_refits = true;
    workload_ = Workload::make(workload, seed);
    if (workload == "live_ingest") {
      app_wal_dir_ = work_dir + "/app";
      write_prehistory(workload, seed, app_wal_dir_);
      app_options.monitor.wal.dir = app_wal_dir_;
      // No background flusher: the WAL's fsync cost is timed in wal_layers().
      app_options.monitor.wal.fsync = wal::FsyncPolicy::kNever;
      for (const wal::SegmentInfo& segment : wal::list_segments(app_wal_dir_)) {
        prehistory_segments_.push_back(segment.path);
      }
    }
    app_ = std::make_unique<serve::App>(app_options);
    mirror_ = std::make_unique<live::Monitor>(mirror_options);
    const std::vector<std::string> streams = workload_->streams();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const auto samples = workload_->prehistory(s);
      if (!samples.empty()) mirror_->ingest_batch(streams[s], samples);
    }
    mirror_->drain();
    fit_cache_ = std::make_unique<serve::FitCache>(app_options.cache_capacity,
                                                   app_->fit_cache().shards());
    response_cache_ = std::make_unique<serve::ResponseCache>(
        app_options.cache_capacity, app_->response_cache().shards());
  }

  /// Replay one request; returns its wall time in ns.
  std::int64_t step() {
    const BenchRequest r = workload_->next();
    const std::string wire = r.wire();
    const std::int64_t t0 = now_ns();
    {
      Scope root(tracer_, "request", -1, r.id);
      const std::int64_t p = root.index();
      serve::http::RequestParser parser;
      {
        Scope s(tracer_, "serve.http.parse", p, r.id);
        parser.feed(wire);
      }
      serve::http::Response response;
      {
        Scope s(tracer_, "serve.app.handle." + std::string(route_name(r.route)), p, r.id);
        response = app_->handle(parser.request());
      }
      if (response.status == 400 &&
          response.wire_body().find("fit did not converge") != std::string::npos) {
        ++fit_rejections_;  // the service's answer when the optimum is not finite
      } else if (response.status < 200 || response.status >= 300) {
        ++handler_errors_;
      }
      {
        Scope s(tracer_, "cluster.ring.owner", p, r.id);
        owner_sink_ += ring_.owner(r.key).size();
      }
      switch (r.route) {
        case Route::kFit:
        case Route::kForecast:
        case Route::kMetrics:
          fit_layers(r, response, p);
          break;
        case Route::kIngest:
        case Route::kIngestBatch:
          ingest_layers(r, p);
          break;
        case Route::kStreamGet: {
          Scope s(tracer_, "live.snapshot", p, r.id);
          snapshot_sink_ += mirror_->snapshot(r.key).samples_seen;
          break;
        }
      }
    }
    const std::int64_t wall = now_ns() - t0;
    if (!r.samples.empty()) {
      // The refit this request made due, as the server's scheduler would run
      // it next: the App's untimed, the mirror's as live.refit.
      app_->monitor().refit_batch(1);
      const std::int64_t start = now_ns();
      const std::size_t ran = mirror_->refit_batch(1);
      if (ran > 0) tracer_.add("live.refit", start, -1, r.id);
      refits_due_ += ran;
    }
    return wall;
  }

  void finish() {
    {
      Scope s(tracer_, "live.drain", -1, 0);
      mirror_->drain();
    }
    app_->monitor().drain();
  }

  /// wal.append / wal.sync: the records the App's monitor logged during the
  /// replay, appended shard by shard, in log order, to a fresh Wal of as
  /// many shards. The server's
  /// default interval policy fsyncs every 25 ms; at the nominal rate that is
  /// about kRecordsPerSync records, so sync_all runs once per that many.
  void wal_layers(const std::string& dir) {
    if (app_wal_dir_.empty()) return;
    constexpr std::size_t kRecordsPerSync = 64;
    std::vector<std::pair<std::size_t, wal::Record>> records;
    std::size_t shards = 1;
    for (const wal::SegmentInfo& segment : wal::list_segments(app_wal_dir_)) {
      if (std::find(prehistory_segments_.begin(), prehistory_segments_.end(), segment.path) !=
          prehistory_segments_.end()) {
        continue;
      }
      shards = std::max(shards, segment.shard + 1);
      wal::read_segment(segment.path, [&](const wal::Record& record) {
        records.emplace_back(segment.shard, record);
      });
    }
    wal::WalOptions options;
    options.dir = dir;
    options.fsync = wal::FsyncPolicy::kNever;  // sync_all is called (and timed) here
    std::filesystem::remove_all(dir);
    wal::Wal log(options, shards);
    for (std::size_t i = 0; i < records.size(); ++i) {
      {
        Scope s(tracer_, "wal.append", -1, i);
        log.append(records[i].first, records[i].second);
      }
      if ((i + 1) % kRecordsPerSync == 0) {
        Scope s(tracer_, "wal.sync", -1, i);
        log.sync_all();
      }
    }
    wal_records_ = records.size();
  }

  const Tracer& tracer() const { return tracer_; }
  const FitDiagnostics& diagnostics() const { return diagnostics_; }
  std::uint64_t handler_errors() const { return handler_errors_; }
  std::uint64_t fit_rejections() const { return fit_rejections_; }
  std::uint64_t refits_due() const { return refits_due_; }
  std::uint64_t wal_records() const { return wal_records_; }
  const std::vector<FitInput>& fit_inputs() const { return fit_inputs_; }

 private:
  void record(const core::FitResult& fit) {
    ++diagnostics_.fits;
    diagnostics_.starts += static_cast<std::uint64_t>(fit.starts_tried);
    diagnostics_.iterations += static_cast<std::uint64_t>(fit.iterations);
    diagnostics_.evals += static_cast<std::uint64_t>(fit.function_evaluations);
  }

  void fit_layers(const BenchRequest& r, const serve::http::Response& response,
                  std::int64_t p) {
    serve::Json body;
    {
      Scope s(tracer_, "serve.json.parse", p, r.id);
      body = serve::Json::parse(r.body);
    }
    {
      Scope s(tracer_, "serve.response_cache.lookup", p, r.id);
      if (response_cache_->lookup(r.target, r.body)) return;
    }
    const serve::Json& series_json = *body.find("series");
    std::vector<double> values;
    for (const serve::Json& v : series_json.find("values")->as_array()) {
      values.push_back(v.as_number());
    }
    const data::PerformanceSeries series(series_json.find("name")->as_string(),
                                         std::move(values));
    const std::string model = body.find("model")->as_string();
    const auto holdout = static_cast<std::size_t>(body.find("holdout")->as_number());
    core::FitOptions options;
    options.multistart.threads = fit_threads_;
    const serve::FitCacheKey key = serve::make_fit_cache_key(series, model, holdout, options);
    std::shared_ptr<const core::FitResult> fit;
    {
      Scope s(tracer_, "serve.fit_cache.lookup", p, r.id);
      fit = fit_cache_->lookup(key);
    }
    if (!fit) {
      {
        Scope s(tracer_, "core.fit." + core::model_family(model), p, r.id);
        fit = std::make_shared<core::FitResult>(core::fit_model(model, series, holdout, options));
      }
      record(*fit);
      if (fit_inputs_.size() < 24) fit_inputs_.push_back({model, series, holdout});
      if (!fit->success()) return;  // App answers 400 here too
      fit_cache_->insert(key, fit);
    }
    if (r.route == Route::kForecast) {
      Scope s(tracer_, "core.forecast", p, r.id);
      forecast_sink_ += core::forecast_horizon(*fit, 12).points.size();
    } else if (r.route == Route::kMetrics) {
      Scope s(tracer_, "core.metrics", p, r.id);
      forecast_sink_ += core::predictive_metrics(*fit).size();
    }
    if (response.status == 200) {
      response_cache_->insert(r.target, r.body,
                              std::make_shared<const std::string>(response.wire_body()));
    }
  }

  void ingest_layers(const BenchRequest& r, std::int64_t p) {
    {
      Scope s(tracer_, "serve.json.parse", p, r.id);
      json_sink_ += serve::Json::parse(r.body).is_object() ? 1 : 0;
    }
    if (r.route == Route::kIngest) {
      Scope s(tracer_, "live.ingest", p, r.id);
      mirror_->ingest(r.key, r.samples.front().first, r.samples.front().second);
    } else {
      Scope s(tracer_, "live.ingest_batch", p, r.id);
      mirror_->ingest_batch(r.key, r.samples);
    }
  }

  Tracer tracer_;
  int fit_threads_;
  cluster::HashRing ring_;
  std::unique_ptr<serve::App> app_;
  std::unique_ptr<live::Monitor> mirror_;
  std::unique_ptr<serve::FitCache> fit_cache_;
  std::unique_ptr<serve::ResponseCache> response_cache_;
  std::unique_ptr<Workload> workload_;
  std::string app_wal_dir_;
  std::vector<std::string> prehistory_segments_;
  FitDiagnostics diagnostics_;
  std::uint64_t handler_errors_ = 0;
  std::uint64_t fit_rejections_ = 0;
  std::uint64_t refits_due_ = 0;
  std::uint64_t wal_records_ = 0;
  std::vector<FitInput> fit_inputs_;
  std::uint64_t owner_sink_ = 0, snapshot_sink_ = 0, forecast_sink_ = 0, json_sink_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// par.fit_speedup: the same fits at the server's fit-thread setting and at 1.
double fit_speedup(const std::vector<FitInput>& inputs, int threads) {
  if (inputs.empty()) return 0.0;
  auto time_all = [&](int t) {
    const std::int64_t t0 = now_ns();
    for (const FitInput& input : inputs) {
      core::FitOptions options;
      options.multistart.threads = t;
      try {
        (void)core::fit_model(input.model, input.series, input.holdout, options);
      } catch (const std::exception&) {
      }
    }
    return static_cast<double>(now_ns() - t0);
  };
  std::vector<double> serial, parallel;
  for (int rep = 0; rep < 3; ++rep) {
    serial.push_back(time_all(1));
    parallel.push_back(time_all(threads));
  }
  return median(serial) / median(parallel);
}

}  // namespace

int run_trace(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& work_dir, const std::string& spans_path, int fit_threads) {
  // Pass 1, untraced: as many requests as fit in half the budget.
  std::vector<double> plain_ns;
  {
    Replay replay(workload, seed, work_dir, fit_threads, false);
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 0.5e9);
    while (now_ns() < end || plain_ns.size() < 50) {
      plain_ns.push_back(static_cast<double>(replay.step()));
    }
    replay.finish();
  }
  // Pass 2, traced: exactly the same requests.
  Replay replay(workload, seed, work_dir, fit_threads, true);
  std::vector<double> traced_ns;
  for (std::size_t i = 0; i < plain_ns.size(); ++i) {
    traced_ns.push_back(static_cast<double>(replay.step()));
  }
  replay.finish();
  replay.wal_layers(work_dir + "/wal");

  // Self time = span duration minus the time its children cover.
  const std::vector<Span>& spans = replay.tracer().spans();
  const std::vector<std::string> names = replay.tracer().names();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.start);
  }
  // Besides each span name, pool the per-route handler spans and the
  // per-family fit_model spans under one name each.
  std::map<std::string, std::vector<double>> self_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = names[spans[i].name];
    const double self = static_cast<double>(spans[i].end - spans[i].start) - child_ns[i];
    self_ns[name].push_back(self);
    if (name.rfind("serve.app.handle.", 0) == 0) self_ns["serve.app.handle"].push_back(self);
    if (name.rfind("core.fit.", 0) == 0) self_ns["core.fit"].push_back(self);
  }

  {
    std::ofstream out(spans_path);
    out << "span\tparent\trequest\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out << i << '\t' << spans[i].parent << '\t' << spans[i].request << '\t'
          << names[spans[i].name] << '\t' << spans[i].start << '\t' << spans[i].end << '\n';
    }
  }

  double recover_s = 0.0;
  if (workload == "live_ingest") {
    const std::string dir = work_dir + "/recover";
    std::filesystem::remove_all(dir);
    write_prehistory(workload, seed, dir);
    live::MonitorOptions options;
    options.wal.dir = dir;
    const std::int64_t t0 = now_ns();
    auto recovered = live::Monitor::recover(options);
    recover_s = static_cast<double>(now_ns() - t0) / 1e9;
  }

  const FitDiagnostics& d = replay.diagnostics();
  auto per_fit = [&](std::uint64_t n) {
    return d.fits ? static_cast<double>(n) / static_cast<double>(d.fits) : 0.0;
  };
  std::cout.precision(17);
  std::cout << "{\"requests\":" << plain_ns.size()
            << ",\"plain_p50_ns\":" << median(plain_ns)
            << ",\"traced_p50_ns\":" << median(traced_ns)
            << ",\"spans\":" << spans.size()
            << ",\"handler_errors\":" << replay.handler_errors()
            << ",\"fit_rejections\":" << replay.fit_rejections()
            << ",\"fits\":" << d.fits
            << ",\"starts_per_fit\":" << per_fit(d.starts)
            << ",\"iterations_per_fit\":" << per_fit(d.iterations)
            << ",\"evals_per_fit\":" << per_fit(d.evals)
            << ",\"refits_due\":" << replay.refits_due()
            << ",\"wal_records\":" << replay.wal_records()
            << ",\"fit_speedup\":" << fit_speedup(replay.fit_inputs(), fit_threads)
            << ",\"recover_s\":" << recover_s << ",\"self_ns\":{";
  bool first = true;
  for (const auto& [name, values] : self_ns) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (!first) std::cout << ',';
    first = false;
    std::cout << '"' << name << "\":{\"count\":" << sorted.size()
              << ",\"median\":" << median(sorted)
              << ",\"total\":" << [&] {
                   double t = 0;
                   for (double v : sorted) t += v;
                   return t;
                 }() << '}';
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace prm::bench
