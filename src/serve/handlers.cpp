#include "serve/handlers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/analysis.hpp"
#include "core/forecast.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "core/validation.hpp"
#include "optimize/problem.hpp"
#include "serve/json_writer.hpp"

namespace prm::serve {

namespace {

// Every response below is built in the calling worker's reusable JsonWriter
// arena (thread_json_writer) -- no Json tree, no per-node allocations. To
// keep the wire format byte-identical to the old Json::dump() path (which
// serialized std::map objects), keys are emitted in sorted order throughout.

http::Response error_response(int status, const std::string& message) {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("error", message);
  w.end_object();
  return http::Response::json(status, w.str());
}

/// Read a non-negative integral field ("holdout", "steps"); throws
/// std::runtime_error (-> 400) on negatives or fractional values.
std::size_t json_index_or(const Json& obj, std::string_view key, std::size_t fallback) {
  const double raw = json_number_or(obj, key, static_cast<double>(fallback));
  if (!(raw >= 0.0) || raw != std::floor(raw)) {
    throw std::runtime_error("field '" + std::string(key) +
                             "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(raw);
}

}  // namespace

struct App::FitRequest {
  data::PerformanceSeries series;
  std::string model;
  std::size_t holdout = 0;
  core::FitOptions fit_options;
};

App::App(AppOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      response_cache_(options_.cache_capacity, options_.cache_shards) {
  if (!core::ModelRegistry::instance().contains(options_.default_model)) {
    throw std::out_of_range("App: unknown default model '" + options_.default_model +
                            "'");
  }
  // With a WAL directory configured, boot through recover(): it handles the
  // empty-directory, snapshot-only, and snapshot+log-tail cases uniformly,
  // so a restarted server resumes exactly where the last one stopped.
  if (!options_.monitor.wal.dir.empty()) {
    monitor_ = live::Monitor::recover(options_.monitor);
  } else {
    monitor_ = std::make_unique<live::Monitor>(options_.monitor);
  }
}

void App::set_stats_provider(std::function<ServerStats()> provider) {
  std::lock_guard<std::mutex> lock(stats_provider_mutex_);
  stats_provider_ = std::move(provider);
}

App::FitRequest App::parse_fit_request(const Json& body) const {
  const Json* series_field = body.find("series");
  if (!series_field || !series_field->is_object()) {
    throw std::runtime_error("missing required object field 'series'");
  }
  std::vector<double> values = json_number_array(*series_field, "values");
  if (values.size() < 2) {
    throw std::runtime_error("'series.values' needs at least 2 samples");
  }
  if (values.size() > options_.max_series_samples) {
    throw std::runtime_error("series exceeds " +
                             std::to_string(options_.max_series_samples) + " samples");
  }
  const std::string name = json_string_or(*series_field, "name", "series");

  FitRequest request;
  if (series_field->find("times")) {
    std::vector<double> times = json_number_array(*series_field, "times");
    if (times.size() != values.size()) {
      throw std::runtime_error("'series.times' and 'series.values' differ in length");
    }
    // PerformanceSeries enforces strictly increasing times (-> 400 on violation).
    request.series = data::PerformanceSeries(name, std::move(times), std::move(values));
  } else {
    request.series = data::PerformanceSeries(name, std::move(values));
  }

  request.model = json_string_or(body, "model", options_.default_model);
  if (!core::ModelRegistry::instance().contains(request.model)) {
    throw std::runtime_error("unknown model '" + request.model + "'");
  }

  const std::size_t n = request.series.size();
  request.holdout = json_index_or(body, "holdout", std::max<std::size_t>(n / 10, 1));
  if (request.holdout >= n) {
    throw std::runtime_error("'holdout' must be smaller than the series length");
  }

  const std::string loss = json_string_or(body, "loss", "squared");
  if (loss == "huber") {
    request.fit_options.loss = opt::LossKind::kHuber;
  } else if (loss == "cauchy") {
    request.fit_options.loss = opt::LossKind::kCauchy;
  } else if (loss != "squared") {
    throw std::runtime_error("unknown loss '" + loss +
                             "' (expected squared|huber|cauchy)");
  }
  request.fit_options.loss_scale =
      json_number_or(body, "loss_scale", request.fit_options.loss_scale);
  // Cold-path fits run their multistart on the shared task pool; the cache
  // key ignores this knob because results are thread-count-invariant.
  request.fit_options.multistart.threads = options_.fit_threads;
  return request;
}

std::pair<std::shared_ptr<const core::FitResult>, bool> App::fit_or_cache(
    const FitRequest& request) {
  const FitCacheKey key = make_fit_cache_key(request.series, request.model,
                                             request.holdout, request.fit_options);
  if (auto hit = cache_.lookup(key, &request.series)) return {std::move(hit), true};

  auto fit = std::make_shared<core::FitResult>(core::fit_model(
      request.model, request.series, request.holdout, request.fit_options));
  fits_computed_.fetch_add(1, std::memory_order_relaxed);
  if (!fit->success()) {
    throw std::runtime_error("fit did not converge (" +
                             std::string(opt::to_string(fit->stop_reason)) + ")");
  }
  cache_.insert(key, fit);  // only successes are cached
  return {std::move(fit), false};
}

http::Response App::cached_post(std::string_view route, const http::Request& request,
                                http::Response (App::*handler)(const http::Request&)) {
  if (auto body = response_cache_.lookup(route, request.body)) {
    // Zero-copy hit: the cached bytes ride to the socket as a body_ref
    // (refcount bump shared with the cache), never copied per connection.
    return http::Response::json_ref(200, std::move(body));
  }
  http::Response response = (this->*handler)(request);
  if (response.status == 200) {
    // Patch the cache label before storing: a later identical request would
    // have reported "hit". The raw bytes `"cache":"miss"` cannot occur inside
    // any JSON string value (interior quotes are always escaped), so the
    // first match is the top-level field; absent means the handler already
    // said "hit" (fit-cache hit) and the body stores as-is.
    std::string stored = response.body;
    static constexpr std::string_view kMissField = "\"cache\":\"miss\"";
    static constexpr std::string_view kHitField = "\"cache\":\"hit\"";
    if (const auto pos = stored.find(kMissField); pos != std::string::npos) {
      stored.replace(pos, kMissField.size(), kHitField);
    }
    response_cache_.insert(route, request.body,
                           std::make_shared<const std::string>(std::move(stored)));
  }
  return response;
}

http::Response App::handle(const http::Request& request) {
  try {
    const std::string& target = request.target;
    const bool is_get = request.method == "GET" || request.method == "HEAD";
    const bool is_post = request.method == "POST";

    if (target == "/healthz") {
      return is_get ? handle_healthz() : error_response(405, "use GET /healthz");
    }
    if (target == "/metrics") {
      return is_get ? handle_metrics() : error_response(405, "use GET /metrics");
    }
    if (target == "/v1/models") {
      return is_get ? handle_models() : error_response(405, "use GET /v1/models");
    }
    if (target == "/v1/fit") {
      return is_post ? cached_post(target, request, &App::handle_fit)
                     : error_response(405, "use POST /v1/fit");
    }
    if (target == "/v1/forecast") {
      return is_post ? cached_post(target, request, &App::handle_forecast)
                     : error_response(405, "use POST /v1/forecast");
    }
    if (target == "/v1/metrics") {
      return is_post ? cached_post(target, request, &App::handle_interval_metrics)
                     : error_response(405, "use POST /v1/metrics");
    }
    if (target == "/v1/streams" || target == "/v1/streams/") {
      return is_get ? handle_stream_list()
                    : error_response(405, "use GET /v1/streams");
    }
    constexpr std::string_view kClusterPrefix = "/v1/cluster/";
    if (target.size() > kClusterPrefix.size() &&
        std::string_view(target).substr(0, kClusterPrefix.size()) == kClusterPrefix) {
      const std::string_view rest =
          std::string_view(target).substr(kClusterPrefix.size());
      // Segment shipping is gated on the WAL, not on cluster mode: any
      // WAL-backed node can seed a replica, clustered or not.
      if (rest == "segments") {
        return is_get ? handle_cluster_manifest()
                      : error_response(405, "use GET /v1/cluster/segments");
      }
      constexpr std::string_view kFilePrefix = "segments/";
      if (rest.size() > kFilePrefix.size() &&
          rest.substr(0, kFilePrefix.size()) == kFilePrefix) {
        const std::string name(rest.substr(kFilePrefix.size()));
        return is_get ? handle_cluster_file(name)
                      : error_response(405, "use GET /v1/cluster/segments/{file}");
      }
      if (!cluster_) return error_response(404, "cluster mode is off");
      if (rest == "ring") {
        return is_get ? handle_cluster_ring()
                      : error_response(405, "use GET /v1/cluster/ring");
      }
      constexpr std::string_view kOwnerPrefix = "owner/";
      if (rest.size() > kOwnerPrefix.size() &&
          rest.substr(0, kOwnerPrefix.size()) == kOwnerPrefix) {
        const std::string name(rest.substr(kOwnerPrefix.size()));
        return is_get ? handle_cluster_owner(name)
                      : error_response(405, "use GET /v1/cluster/owner/{stream}");
      }
      return error_response(404, "no route for '" + target + "'");
    }
    constexpr std::string_view kStreamPrefix = "/v1/streams/";
    if (target.size() > kStreamPrefix.size() &&
        std::string_view(target).substr(0, kStreamPrefix.size()) == kStreamPrefix) {
      std::string rest = target.substr(kStreamPrefix.size());
      if (cluster_) {
        if (const auto name = stream_route_name(target)) {
          if (auto redirect = cluster_redirect(*name, request)) return *redirect;
        }
      }
      constexpr std::string_view kBatchSuffix = "/ingest-batch";
      if (rest.size() > kBatchSuffix.size() &&
          std::string_view(rest).substr(rest.size() - kBatchSuffix.size()) ==
              kBatchSuffix) {
        const std::string name = rest.substr(0, rest.size() - kBatchSuffix.size());
        return is_post
                   ? handle_stream_ingest_batch(name, request)
                   : error_response(405, "use POST /v1/streams/{name}/ingest-batch");
      }
      constexpr std::string_view kIngestSuffix = "/ingest";
      if (rest.size() > kIngestSuffix.size() &&
          std::string_view(rest).substr(rest.size() - kIngestSuffix.size()) ==
              kIngestSuffix) {
        const std::string name = rest.substr(0, rest.size() - kIngestSuffix.size());
        return is_post ? handle_stream_ingest(name, request)
                       : error_response(405, "use POST /v1/streams/{name}/ingest");
      }
      if (request.method == "DELETE") return handle_stream_remove(rest);
      return is_get ? handle_stream_get(rest)
                    : error_response(405, "use GET or DELETE /v1/streams/{name}");
    }
    return error_response(404, "no route for '" + target + "'");
  } catch (const std::exception& e) {
    // Anything thrown while parsing/validating/fitting is a client-side
    // problem by construction; internal faults surface via Server's 500 path.
    return error_response(400, e.what());
  }
}

http::Response App::handle_healthz() const {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("service", "prm-serve");
  w.kv("status", "ok");
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_metrics() const {
  const FitCacheStats cache_stats = cache_.stats();
  JsonWriter& w = thread_json_writer();
  w.begin_object();

  if (cluster_) {
    w.key("cluster");
    w.begin_object();
    w.kv("mode", cluster_->router() ? "router" : "node");
    w.key("nodes");
    w.begin_array();
    for (const std::string& node : cluster_->ring().nodes()) w.string(node);
    w.end_array();
    w.kv("proxied", cluster_->proxied());
    w.kv("proxy_errors", cluster_->proxy_errors());
    w.kv("redirects", cluster_->redirects());
    if (cluster_->router()) {
      w.kv_null("self");
    } else {
      w.kv("self", cluster_->self());
    }
    w.key("upstreams");
    if (const cluster::UpstreamPool* pool = cluster_->upstreams()) {
      const cluster::UpstreamStats us = pool->stats();
      w.begin_object();
      w.kv("connect_failures", us.connect_failures);
      w.kv("connections_open", us.connections_open);
      w.kv("connects", us.connects);
      w.key("down");
      w.begin_array();
      for (const std::string& peer : pool->down_peers()) w.string(peer);
      w.end_array();
      w.kv("failed", us.failed);
      w.kv("forwarded", us.forwarded);
      w.kv("pipelined", us.pipelined);
      w.end_object();
    } else {
      w.null();  // node mode: nodes redirect, they never proxy
    }
    w.kv("vnodes", cluster_->ring().vnodes_per_node());
    w.end_object();
  }

  w.key("fit_cache");
  w.begin_object();
  w.kv("capacity", cache_.capacity());
  w.kv("evictions", cache_stats.evictions);
  w.kv("hits", cache_stats.hits);
  w.kv("misses", cache_stats.misses);
  w.kv("shards", cache_.shards());
  w.kv("size", cache_stats.size);
  w.end_object();

  w.kv("fits_computed", fits_computed());

  w.key("monitor");
  w.begin_object();
  w.kv("refits_coalesced", monitor_->refits_coalesced());
  w.kv("refits_executed", monitor_->refits_executed());
  w.kv("refits_failed", monitor_->refits_failed());
  w.kv("shards", monitor_->registry_shards());
  w.kv("streams", monitor_->stream_count());
  w.end_object();

  const ResponseCacheStats response_stats = response_cache_.stats();
  w.key("response_cache");
  w.begin_object();
  w.kv("capacity", response_cache_.capacity());
  w.kv("evictions", response_stats.evictions);
  w.kv("hits", response_stats.hits);
  w.kv("misses", response_stats.misses);
  w.kv("shards", response_cache_.shards());
  w.kv("size", response_stats.size);
  w.end_object();

  {
    std::lock_guard<std::mutex> lock(stats_provider_mutex_);
    if (stats_provider_) {
      const ServerStats s = stats_provider_();
      w.key("server");
      w.begin_object();
      w.key("accept_loops");
      w.begin_array();
      for (const std::uint64_t accepted : s.loop_accepts) w.number(accepted);
      w.end_array();
      w.key("buffer_pool");
      w.begin_object();
      w.kv("acquired", s.buffer_pool.acquired);
      w.kv("dropped", s.buffer_pool.dropped);
      w.kv("high_water", s.buffer_pool.high_water);
      w.kv("in_use", s.buffer_pool.in_use);
      w.kv("misses", s.buffer_pool.misses);
      w.kv("pooled", s.buffer_pool.pooled);
      w.kv("recycled", s.buffer_pool.recycled);
      w.kv("released", s.buffer_pool.released);
      w.end_object();
      w.kv("connections_accepted", s.connections_accepted);
      w.kv("connections_rejected", s.connections_rejected);
      w.kv("event_threads", s.event_threads);
      w.key("latency_histogram");
      w.begin_array();
      for (std::size_t i = 0; i < s.latency_buckets.size(); ++i) {
        w.begin_object();
        w.kv("count", s.latency_buckets[i]);
        if (i < kLatencyBucketEdgesUs.size()) {
          w.kv("le_us", kLatencyBucketEdgesUs[i]);
        } else {
          w.kv_null("le_us");  // null = +inf overflow bucket
        }
        w.end_object();
      }
      w.end_array();
      w.key("loop_connections");
      w.begin_array();
      for (const std::size_t open : s.loop_connections) w.number(open);
      w.end_array();
      w.kv("parse_errors", s.parse_errors);
      w.kv("queue_depth", s.queue_depth);
      w.key("queue_depths");
      w.begin_array();
      for (const std::size_t depth : s.queue_depths) w.number(depth);
      w.end_array();
      w.kv("requests_total", s.requests_total);
      w.kv("responses_2xx", s.responses_2xx);
      w.kv("responses_4xx", s.responses_4xx);
      w.kv("responses_5xx", s.responses_5xx);
      w.kv("threads", s.threads);
      w.kv("timeouts", s.timeouts);
      w.kv("writev_batches", s.writev_batches);
      w.kv("writev_calls", s.writev_calls);
      w.end_object();
    } else {
      w.kv_null("server");
    }
  }

  if (monitor_->wal_enabled()) {
    const wal::WalStats wal_stats = monitor_->wal_stats();
    const wal::RecoveryStats& recovery = monitor_->recovery_stats();
    w.key("wal");
    w.begin_object();
    w.kv("bytes", wal_stats.bytes);
    w.kv("compactions", wal_stats.compactions);
    w.kv("disk_bytes", monitor_->wal_disk_bytes());
    w.kv("fsync", wal::to_string(monitor_->options().wal.fsync));
    w.kv("fsyncs", wal_stats.fsyncs);
    w.kv("records", wal_stats.records);
    w.key("recovery");
    w.begin_object();
    w.kv("applied", recovery.applied);
    w.kv("records", recovery.records);
    w.kv("segments", recovery.segments);
    w.kv("skipped", recovery.skipped);
    w.kv("snapshot_loaded", recovery.snapshot_loaded);
    w.kv("torn_tails", recovery.torn_tails);
    w.end_object();
    w.kv("rotations", wal_stats.rotations);
    w.kv("segments", wal_stats.segments);
    w.end_object();
  } else {
    w.kv_null("wal");
  }

  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_models() const {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.key("models");
  w.begin_array();
  for (const std::string& name : core::ModelRegistry::instance().names()) {
    const core::ModelPtr model = core::ModelRegistry::instance().create(name);
    w.begin_object();
    w.kv("description", model->description());
    w.kv("display", core::display_label(name));
    w.kv("family", core::model_family(name));
    w.kv("name", name);
    w.key("parameter_names");
    w.begin_array();
    for (const std::string& p : model->parameter_names()) w.string(p);
    w.end_array();
    w.kv("parameters", model->num_parameters());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_fit(const http::Request& request) {
  const Json body = Json::parse(request.body);
  const FitRequest fit_request = parse_fit_request(body);
  const auto [fit, cache_hit] = fit_or_cache(fit_request);
  const core::ValidationReport report = core::validate(*fit);

  const double level =
      json_number_or(body, "level", fit_request.series.value(0));
  // One trough search serves the recovery query and the trough fields: a
  // mixture has no closed form, so each search is a scan of the curve.
  const double trough_time = core::predict_trough_time(*fit);

  JsonWriter& w = thread_json_writer();
  w.begin_object();

  w.key("band");
  w.begin_object();
  w.kv("half_width", report.band.half_width);
  w.key("lower");
  w.numbers(report.band.lower);
  w.key("times");
  w.numbers(fit_request.series.times());
  w.key("upper");
  w.numbers(report.band.upper);
  w.end_object();

  w.kv("cache", cache_hit ? "hit" : "miss");
  w.kv("display_model", core::display_label(fit_request.model));
  w.kv("holdout", fit_request.holdout);
  w.kv("model", fit_request.model);

  w.key("parameter_vector");
  w.numbers(fit->parameters());

  // Named parameters sorted by name (the old JsonObject sorted its keys).
  const auto names = fit->model().parameter_names();
  std::vector<std::pair<std::string_view, double>> named;
  named.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    named.emplace_back(names[i], fit->parameters()[i]);
  }
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.key("parameters");
  w.begin_object();
  for (const auto& [name, value] : named) w.kv(name, value);
  w.end_object();

  w.key("recovery");
  w.begin_object();
  w.kv("level", level);
  w.kv("time", core::predict_recovery_time(*fit, level, trough_time));
  w.end_object();

  // function_evaluations counts the whole fit (every start plus the polish);
  // iterations are the winning start's.
  w.key("solver");
  w.begin_object();
  w.kv("function_evaluations", fit->function_evaluations);
  w.kv("iterations", fit->iterations);
  w.kv("sse", fit->sse);
  w.kv("starts_tried", fit->starts_tried);
  w.kv("stop", opt::to_string(fit->stop_reason));
  w.end_object();

  w.key("trough");
  w.begin_object();
  w.kv("time", trough_time);
  w.kv("value", fit->evaluate(trough_time));
  w.end_object();

  w.key("validation");
  w.begin_object();
  w.kv("aic", report.aic);
  w.kv("bic", report.bic);
  w.kv("ec", report.ec);
  w.kv("pmse", report.pmse);
  w.kv("r2_adj", report.r2_adj);
  w.kv("sse", report.sse);
  w.kv("theil_u", report.theil_u);
  w.end_object();

  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_forecast(const http::Request& request) {
  const Json body = Json::parse(request.body);
  const FitRequest fit_request = parse_fit_request(body);
  const std::size_t steps = json_index_or(body, "steps", 12);
  const double dt = json_number_or(body, "dt", 0.0);
  const double alpha = json_number_or(body, "alpha", 0.05);
  if (steps == 0 || steps > 100000) {
    throw std::runtime_error("'steps' must be between 1 and 100000");
  }

  const auto [fit, cache_hit] = fit_or_cache(fit_request);
  const core::ForecastResult forecast = core::forecast_horizon(*fit, steps, dt, alpha);

  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("cache", cache_hit ? "hit" : "miss");
  w.kv("model", fit_request.model);
  w.key("points");
  w.begin_array();
  for (const core::ForecastPoint& p : forecast.points) {
    w.begin_object();
    w.kv("lower", p.lower);
    w.kv("t", p.t);
    w.kv("upper", p.upper);
    w.kv("value", p.value);
    w.end_object();
  }
  w.end_array();
  w.kv("sigma2", forecast.sigma2);
  w.kv("used_delta_method", forecast.used_delta_method);
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_interval_metrics(const http::Request& request) {
  const Json body = Json::parse(request.body);
  const FitRequest fit_request = parse_fit_request(body);
  if (fit_request.holdout == 0) {
    throw std::runtime_error("'holdout' must be >= 1 for interval metrics");
  }
  core::MetricOptions metric_options;
  metric_options.alpha_weight = json_number_or(body, "alpha_weight", 0.5);

  const auto [fit, cache_hit] = fit_or_cache(fit_request);
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("cache", cache_hit ? "hit" : "miss");
  w.kv("holdout", fit_request.holdout);
  w.key("metrics");
  w.begin_array();
  for (const core::MetricValue& m : core::predictive_metrics(*fit, metric_options)) {
    w.begin_object();
    w.kv("actual", m.actual);
    w.kv("metric", core::to_string(m.kind));
    w.kv("predicted", m.predicted);
    w.kv("relative_error", m.relative_error);
    w.end_object();
  }
  w.end_array();
  w.kv("model", fit_request.model);
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_stream_list() const {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.key("streams");
  w.begin_array();
  for (const std::string& name : monitor_->stream_names()) w.string(name);
  w.end_array();
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_stream_get(const std::string& name) const {
  live::StreamSnapshot snap;
  try {
    snap = monitor_->snapshot(name);
  } catch (const std::out_of_range&) {
    return error_response(404, "unknown stream '" + name + "'");
  }

  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("event_active", snap.event_active);
  w.kv("event_ordinal", snap.event_ordinal);

  if (snap.has_fit) {
    w.key("fit");
    w.begin_object();
    w.kv("model", snap.model);
    w.key("parameters");
    w.numbers(snap.parameters);
    w.kv("predicted_recovery_time", snap.predicted_recovery_time);
    w.kv("predicted_trough_time", snap.predicted_trough_time);
    w.kv("predicted_trough_value", snap.predicted_trough_value);
    w.kv("sse", snap.fit_sse);
    w.end_object();
  } else {
    w.kv_null("fit");
  }

  if (snap.has_horizon_metrics) {
    // Metric names sorted to match the old JsonObject key order.
    std::array<std::pair<std::string_view, double>, 8> metrics;
    for (std::size_t i = 0; i < core::kAllMetrics.size(); ++i) {
      metrics[i] = {core::to_string(core::kAllMetrics[i]), snap.horizon_metrics[i]};
    }
    std::sort(metrics.begin(), metrics.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.key("horizon_metrics");
    w.begin_object();
    for (const auto& [metric, value] : metrics) w.kv(metric, value);
    w.end_object();
  } else {
    w.kv_null("horizon_metrics");
  }

  w.kv("last_time", snap.last_time);
  w.kv("last_value", snap.last_value);
  w.kv("onset_time", snap.onset_time);
  w.kv("phase", live::to_string(snap.phase));

  w.key("refits");
  w.begin_object();
  w.kv("failed", snap.failed_refits);
  w.kv("total", snap.refits);
  w.kv("warm", snap.warm_refits);
  w.end_object();

  w.kv("samples_seen", snap.samples_seen);
  w.kv("stream", snap.name);

  w.key("trough");
  w.begin_object();
  w.kv("time", snap.trough_time);
  w.kv("value", snap.trough_value);
  w.end_object();

  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_stream_remove(const std::string& name) {
  if (!monitor_->remove_stream(name)) {
    return error_response(404, "unknown stream '" + name + "'");
  }
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("removed", true);
  w.kv("stream", name);
  w.end_object();
  return http::Response::json(200, w.str());
}

std::vector<std::pair<double, double>> App::parse_ingest_samples(
    const Json& body, std::size_t max_samples) const {
  std::vector<std::pair<double, double>> samples;
  if (const Json* list = body.find("samples")) {
    if (!list->is_array()) throw std::runtime_error("'samples' must be an array");
    if (max_samples != 0 && list->as_array().size() > max_samples) {
      throw std::runtime_error("batch exceeds " + std::to_string(max_samples) +
                               " samples");
    }
    samples.reserve(list->as_array().size());
    for (const Json& element : list->as_array()) {
      if (!element.is_array() || element.as_array().size() != 2 ||
          !element.as_array()[0].is_number() || !element.as_array()[1].is_number()) {
        throw std::runtime_error("'samples' entries must be [t, value] pairs");
      }
      samples.emplace_back(element.as_array()[0].as_number(),
                           element.as_array()[1].as_number());
    }
  } else {
    samples.emplace_back(json_number(body, "t"), json_number(body, "value"));
  }
  if (samples.empty()) throw std::runtime_error("no samples provided");
  return samples;
}

http::Response App::handle_stream_ingest(const std::string& name,
                                         const http::Request& request) {
  const Json body = Json::parse(request.body);
  const std::vector<std::pair<double, double>> samples =
      parse_ingest_samples(body, /*max_samples=*/0);

  // Ingest first (out-of-order times / bad stream names throw -> 400), then
  // serialize: the writer arena must not be live across monitor_ calls that
  // can throw mid-document.
  std::vector<live::TransitionEvent> transitions;
  for (const auto& [t, value] : samples) {
    for (const live::TransitionEvent& tr : monitor_->ingest(name, t, value)) {
      transitions.push_back(tr);
    }
  }
  const live::StreamSnapshot snap = monitor_->snapshot(name);

  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("accepted", samples.size());
  w.kv("event_active", snap.event_active);
  w.kv("event_ordinal", snap.event_ordinal);
  w.kv("phase", live::to_string(snap.phase));
  w.kv("stream", name);
  w.key("transitions");
  w.begin_array();
  for (const live::TransitionEvent& tr : transitions) {
    w.begin_object();
    w.kv("from", live::to_string(tr.from));
    w.kv("t", tr.t);
    w.kv("to", live::to_string(tr.to));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_stream_ingest_batch(const std::string& name,
                                               const http::Request& request) {
  const Json body = Json::parse(request.body);
  const std::vector<std::pair<double, double>> samples =
      parse_ingest_samples(body, options_.max_batch_samples);

  // One Monitor call for the whole batch: the stream lock is taken once, the
  // WAL sees ONE group-committed record, and the batch applies atomically
  // (any invalid sample -> 400 with nothing applied).
  const std::vector<live::TransitionEvent> transitions =
      monitor_->ingest_batch(name, samples);
  const live::StreamSnapshot snap = monitor_->snapshot(name);

  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("accepted", samples.size());
  w.kv("batched", true);
  w.kv("event_active", snap.event_active);
  w.kv("event_ordinal", snap.event_ordinal);
  w.kv("phase", live::to_string(snap.phase));
  w.kv("stream", name);
  w.key("transitions");
  w.begin_array();
  for (const live::TransitionEvent& tr : transitions) {
    w.begin_object();
    w.kv("from", live::to_string(tr.from));
    w.kv("t", tr.t);
    w.kv("to", live::to_string(tr.to));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return http::Response::json(200, w.str());
}

// ---------------------------------------------------------------------------
// Cluster mode.

Server::AsyncHandler App::async_handler() {
  return [this](const http::Request& request, Server::Completion done) {
    if (cluster_ && cluster_->router()) {
      // Router data path: stream routes complete later, from the upstream
      // pool's reactor, once the owning node answers. Everything else
      // (fit routes, metrics, cluster introspection) stays local + inline.
      if (request.target == "/v1/streams" || request.target == "/v1/streams/") {
        if (request.method == "GET" || request.method == "HEAD") {
          router_stream_list(std::move(done));
          return;
        }
      } else if (const auto name = stream_route_name(request.target)) {
        forward_to_owner(cluster_->owner(*name), request, std::move(done));
        return;
      }
    }
    done(handle(request));
  };
}

void App::enable_cluster(cluster::ClusterOptions options) {
  cluster_ = std::make_unique<cluster::Cluster>(std::move(options));
  if (!cluster_->router()) {
    // A mis-routed write must not create a stray stream on a non-owner: the
    // filter turns creation into a 400 while existing streams stay readable
    // (covers the drain window right after a membership change).
    cluster::Cluster* owner_view = cluster_.get();
    monitor_->set_ownership_filter(
        [owner_view](const std::string& name) { return owner_view->owns(name); });
  }
}

std::optional<std::string> App::stream_route_name(const std::string& target) {
  constexpr std::string_view kStreamPrefix = "/v1/streams/";
  if (target.size() <= kStreamPrefix.size() ||
      std::string_view(target).substr(0, kStreamPrefix.size()) != kStreamPrefix) {
    return std::nullopt;
  }
  std::string name = target.substr(kStreamPrefix.size());
  static constexpr std::string_view kSuffixes[] = {"/ingest-batch", "/ingest"};
  for (const std::string_view suffix : kSuffixes) {
    if (name.size() > suffix.size() &&
        std::string_view(name).substr(name.size() - suffix.size()) == suffix) {
      name.resize(name.size() - suffix.size());
      break;
    }
  }
  if (name.empty()) return std::nullopt;
  return name;
}

std::optional<http::Response> App::cluster_redirect(const std::string& name,
                                                    const http::Request& request) {
  if (cluster_->owns(name)) return std::nullopt;
  const std::string& owner = cluster_->owner(name);
  cluster_->count_redirect();
  std::string location = "http://" + owner + request.target;
  if (!request.query.empty()) {
    location += '?';
    location += request.query;
  }
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("error", "stream '" + name + "' is owned by " + owner);
  w.kv("owner", owner);
  w.end_object();
  http::Response response = http::Response::json(307, w.str());
  response.headers["Location"] = std::move(location);
  return response;
}

void App::forward_to_owner(const std::string& owner, const http::Request& request,
                           Server::Completion done) {
  cluster_->count_proxied();
  http::Request upstream = request;  // `request` only lives for this call.
  // The upstream serializer adds its own Host/Content-Length, and the
  // upstream connection's lifetime is the pool's business -- forwarding the
  // client's copies would emit duplicates / close pooled connections.
  upstream.headers.erase("host");
  upstream.headers.erase("content-length");
  upstream.headers.erase("connection");
  cluster_->upstreams()->forward(
      owner, std::move(upstream),
      [this, owner, done](bool ok, http::Response response) {
        if (!ok) {
          cluster_->count_proxy_error();
          done(error_response(502, "owner '" + owner + "' is unavailable"));
          return;
        }
        // Framing headers are recomputed when the response is re-serialized
        // toward the client; the upstream's would duplicate them.
        response.headers.erase("content-length");
        response.headers.erase("connection");
        done(std::move(response));
      });
}

void App::router_stream_list(Server::Completion done) {
  // Fan out GET /v1/streams to every node; the LAST completion (they all
  // fire on the pool's reactor thread) renders the merged, sorted view.
  struct FanOut {
    std::mutex m;
    std::set<std::string> names;
    std::vector<std::string> unavailable;
    std::size_t remaining = 0;
    Server::Completion done;
  };
  auto fan = std::make_shared<FanOut>();
  const std::vector<std::string>& nodes = cluster_->ring().nodes();
  fan->remaining = nodes.size();
  fan->done = std::move(done);
  for (const std::string& node : nodes) {
    http::Request probe;
    probe.method = "GET";
    probe.target = "/v1/streams";
    probe.version = "HTTP/1.1";
    cluster_->upstreams()->forward(
        node, std::move(probe), [fan, node](bool ok, http::Response response) {
          std::lock_guard<std::mutex> lock(fan->m);
          bool merged = false;
          if (ok && response.status == 200) {
            try {
              const Json body = Json::parse(response.body);
              if (const Json* streams = body.find("streams");
                  streams != nullptr && streams->is_array()) {
                for (const Json& entry : streams->as_array()) {
                  if (entry.is_string()) fan->names.insert(entry.as_string());
                }
                merged = true;
              }
            } catch (const std::exception&) {
              // Malformed peer response counts as unavailable below.
            }
          }
          if (!merged) fan->unavailable.push_back(node);
          if (--fan->remaining != 0) return;
          std::sort(fan->unavailable.begin(), fan->unavailable.end());
          JsonWriter& w = thread_json_writer();
          w.begin_object();
          w.key("streams");
          w.begin_array();
          for (const std::string& name : fan->names) w.string(name);
          w.end_array();
          w.key("unavailable");
          w.begin_array();
          for (const std::string& peer : fan->unavailable) w.string(peer);
          w.end_array();
          w.end_object();
          fan->done(http::Response::json(200, w.str()));
        });
  }
}

http::Response App::handle_cluster_ring() const {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("mode", cluster_->router() ? "router" : "node");
  w.key("nodes");
  w.begin_array();
  for (const std::string& node : cluster_->ring().nodes()) w.string(node);
  w.end_array();
  if (cluster_->router()) {
    w.kv_null("self");
  } else {
    w.kv("self", cluster_->self());
  }
  w.kv("vnodes", cluster_->ring().vnodes_per_node());
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_cluster_owner(const std::string& name) const {
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.kv("owner", cluster_->owner(name));
  w.kv("self", cluster_->owns(name));
  w.kv("stream", name);
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_cluster_manifest() const {
  if (!monitor_->wal_enabled()) {
    return error_response(404, "wal is off; no segments to ship");
  }
  const cluster::SegmentManifest manifest =
      cluster::read_manifest(options_.monitor.wal.dir);
  JsonWriter& w = thread_json_writer();
  w.begin_object();
  w.key("segments");
  w.begin_array();
  for (const cluster::SegmentManifest::File& file : manifest.segments) {
    w.begin_object();
    w.kv("file", file.name);
    w.kv("seq", file.seq);
    w.kv("shard", file.shard);
    w.kv("size", file.size);
    w.end_object();
  }
  w.end_array();
  if (manifest.has_snapshot) {
    w.key("snapshot");
    w.begin_object();
    w.kv("file", "snapshot.prm");
    w.kv("size", manifest.snapshot_size);
    w.end_object();
  } else {
    w.kv_null("snapshot");
  }
  w.end_object();
  return http::Response::json(200, w.str());
}

http::Response App::handle_cluster_file(const std::string& name) const {
  if (!monitor_->wal_enabled()) {
    return error_response(404, "wal is off; no segments to ship");
  }
  // transferable_file_name is the path-safety gate: only the WAL dir's own
  // flat file names pass, never separators or traversal.
  if (!cluster::transferable_file_name(name)) {
    return error_response(404, "no such segment '" + name + "'");
  }
  const std::string path = options_.monitor.wal.dir + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) return error_response(404, "no such segment '" + name + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  http::Response response;
  response.status = 200;
  response.headers["Content-Type"] = "application/octet-stream";
  response.body = std::move(bytes);
  return response;
}

}  // namespace prm::serve
