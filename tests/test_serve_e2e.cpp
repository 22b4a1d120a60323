// End-to-end acceptance for prm::serve: a real App behind a real Server on a
// loopback socket, driven by concurrent HTTP clients.
//
//  * 8 client threads POST distinct and duplicate fits; duplicates are served
//    from the fit cache, verified through the /metrics counters, and every
//    response matches a direct core::fit_model call bit-for-bit.
//  * /v1/forecast and /v1/metrics share the same cache slots as /v1/fit.
//  * The /v1/streams bridge ingests into the shared live::Monitor.
//  * Error contract: 400 / 404 / 405 with {"error": ...} bodies.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/fitting.hpp"
#include "data/recessions.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace {

using namespace prm;
using serve::Json;

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = std::make_unique<serve::App>();
    serve::ServerOptions options;
    options.port = 0;
    options.threads = 8;  // one worker per concurrent client below
    server_ = std::make_unique<serve::Server>(
        options, [this](const serve::http::Request& r) { return app_->handle(r); });
    server_->start();
    app_->set_stats_provider([this] { return server_->stats(); });
  }

  void TearDown() override { server_->stop(); }

  static std::string fit_body(const std::string& name) {
    const data::RecessionDataset& dataset = data::recession(name);
    Json series = Json::object();
    series["name"] = Json(name);
    Json times = Json::array();
    for (const double t : dataset.series.times()) times.push_back(Json(t));
    Json values = Json::array();
    for (const double v : dataset.series.values()) values.push_back(Json(v));
    series["times"] = std::move(times);
    series["values"] = std::move(values);
    Json body = Json::object();
    body["series"] = std::move(series);
    body["model"] = Json("competing-risks");
    body["holdout"] = Json(dataset.holdout);
    return body.dump();
  }

  serve::http::Client client() { return {"127.0.0.1", server_->port()}; }

  std::unique_ptr<serve::App> app_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeE2E, HealthzAndModels) {
  auto c = client();
  const serve::http::Response health = c.get("/healthz");
  EXPECT_EQ(health.status, 200);
  const Json health_doc = Json::parse(health.body);
  EXPECT_EQ(health_doc.find("status")->as_string(), "ok");

  const Json models = Json::parse(c.get("/v1/models").body);
  const auto& list = models.find("models")->as_array();
  EXPECT_GE(list.size(), 5u);
  bool found = false;
  bool found_neural = false;
  for (const Json& entry : list) {
    if (entry.find("name")->as_string() == "competing-risks") {
      found = true;
      EXPECT_EQ(entry.find("family")->as_string(), "bathtub");
    }
    if (entry.find("family")->as_string() == "neural") found_neural = true;
  }
  EXPECT_TRUE(found) << "the paper's competing-risks model must be registered";
  EXPECT_TRUE(found_neural) << "the nn family must be listed with its family tag";
}

TEST_F(ServeE2E, ConcurrentClientsShareTheFitCache) {
  const auto names = data::recession_names();
  const auto name_count = static_cast<std::uint64_t>(names.size());
  ASSERT_EQ(name_count, 7u);

  // Warm-up pass: every recession fits once; all of these are cache misses.
  {
    auto c = client();
    for (const std::string_view name : names) {
      const serve::http::Response response =
          c.post_json("/v1/fit", fit_body(std::string(name)));
      ASSERT_EQ(response.status, 200) << response.body;
      EXPECT_EQ(Json::parse(response.body).find("cache")->as_string(), "miss");
    }
  }

  // Concurrent pass: 8 clients x 7 recessions, all duplicates of the warm-up.
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &names, &failures, i] {
      auto c = client();
      // Stagger each client's starting recession so distinct fits are in
      // flight simultaneously, not seven waves of identical requests.
      for (std::size_t k = 0; k < names.size(); ++k) {
        const std::string name(names[(k + static_cast<std::size_t>(i)) % names.size()]);
        const serve::http::Response response = c.post_json("/v1/fit", fit_body(name));
        if (response.status != 200 ||
            Json::parse(response.body).find("cache")->as_string() != "hit") {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The /metrics counters prove the caches did the work: exactly 7 optimizer
  // runs ever, and every one of the 56 concurrent requests was served from
  // the rendered-response cache (identical bodies short-circuit before even
  // reaching the fit cache).
  auto c = client();
  const Json metrics = Json::parse(c.get("/metrics").body);
  const Json* cache = metrics.find("fit_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_number(), 0.0);
  EXPECT_EQ(cache->find("misses")->as_number(), static_cast<double>(name_count));
  EXPECT_EQ(cache->find("size")->as_number(), static_cast<double>(name_count));
  const Json* responses = metrics.find("response_cache");
  ASSERT_NE(responses, nullptr);
  EXPECT_EQ(responses->find("hits")->as_number(),
            kClients * static_cast<double>(name_count));
  EXPECT_EQ(responses->find("misses")->as_number(), static_cast<double>(name_count));
  EXPECT_EQ(responses->find("size")->as_number(), static_cast<double>(name_count));
  EXPECT_EQ(metrics.find("fits_computed")->as_number(), static_cast<double>(name_count));

  const Json* server_stats = metrics.find("server");
  ASSERT_NE(server_stats, nullptr);
  ASSERT_FALSE(server_stats->is_null());
  EXPECT_GE(server_stats->find("requests_total")->as_number(),
            static_cast<double>(name_count + kClients * name_count));
}

TEST_F(ServeE2E, ResponsesMatchDirectCoreFit) {
  const std::string name = "2007-09";
  const data::RecessionDataset& dataset = data::recession(name);

  auto c = client();
  const serve::http::Response response = c.post_json("/v1/fit", fit_body(name));
  ASSERT_EQ(response.status, 200) << response.body;
  const Json doc = Json::parse(response.body);

  // The JSON layer round-trips doubles bit-exactly, so the service's numbers
  // must equal a direct in-process fit with identical inputs -- no tolerance.
  const core::FitResult direct = core::fit_model("competing-risks", dataset.series,
                                                 dataset.holdout, core::FitOptions{});
  ASSERT_TRUE(direct.success());

  const auto& served = doc.find("parameter_vector")->as_array();
  ASSERT_EQ(served.size(), direct.parameters().size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i].as_number(), direct.parameters()[i]) << "parameter " << i;
  }
  EXPECT_DOUBLE_EQ(doc.find("solver")->find("sse")->as_number(), direct.sse);
  EXPECT_EQ(doc.find("holdout")->as_number(), static_cast<double>(dataset.holdout));

  // Named parameters mirror the vector entry-for-entry.
  const auto parameter_names = direct.model().parameter_names();
  for (std::size_t i = 0; i < parameter_names.size(); ++i) {
    EXPECT_DOUBLE_EQ(doc.find("parameters")->find(parameter_names[i])->as_number(),
                     direct.parameters()[i]);
  }

  // Confidence band arrays cover the full sample grid.
  const Json* band = doc.find("band");
  ASSERT_NE(band, nullptr);
  EXPECT_EQ(band->find("lower")->as_array().size(), dataset.series.size());
  EXPECT_EQ(band->find("upper")->as_array().size(), dataset.series.size());
}

TEST_F(ServeE2E, ForecastAndMetricsShareTheFitCache) {
  auto c = client();
  const std::string body = fit_body("1990-93");
  ASSERT_EQ(c.post_json("/v1/fit", body).status, 200);

  // Same fit-shaped request through the other two routes: no new optimizer
  // run, both report a cache hit.
  Json forecast_body = Json::parse(body);
  forecast_body["steps"] = Json(6);
  const serve::http::Response forecast =
      c.post_json("/v1/forecast", forecast_body.dump());
  ASSERT_EQ(forecast.status, 200) << forecast.body;
  const Json forecast_doc = Json::parse(forecast.body);
  EXPECT_EQ(forecast_doc.find("cache")->as_string(), "hit");
  EXPECT_EQ(forecast_doc.find("points")->as_array().size(), 6u);
  for (const Json& point : forecast_doc.find("points")->as_array()) {
    EXPECT_LE(point.find("lower")->as_number(), point.find("upper")->as_number());
  }

  const serve::http::Response metrics = c.post_json("/v1/metrics", body);
  ASSERT_EQ(metrics.status, 200) << metrics.body;
  const Json metrics_doc = Json::parse(metrics.body);
  EXPECT_EQ(metrics_doc.find("cache")->as_string(), "hit");
  EXPECT_EQ(metrics_doc.find("metrics")->as_array().size(), 8u)
      << "the paper defines eight interval resilience metrics";

  EXPECT_DOUBLE_EQ(Json::parse(c.get("/metrics").body).find("fits_computed")->as_number(),
                   1.0);
}

TEST_F(ServeE2E, StreamBridgeIngestsIntoSharedMonitor) {
  auto c = client();

  // Unknown stream: 404 before any ingest.
  EXPECT_EQ(c.get("/v1/streams/ghost").status, 404);

  Json samples = Json::array();
  for (int i = 0; i < 5; ++i) {
    Json pair = Json::array();
    pair.push_back(Json(static_cast<double>(i)));
    pair.push_back(Json(1.0));
    samples.push_back(std::move(pair));
  }
  Json ingest = Json::object();
  ingest["samples"] = std::move(samples);
  const serve::http::Response response =
      c.post_json("/v1/streams/e2e/ingest", ingest.dump());
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(Json::parse(response.body).find("accepted")->as_number(), 5.0);

  // Single-sample shorthand body.
  EXPECT_EQ(c.post_json("/v1/streams/e2e/ingest", R"({"t":5,"value":0.99})").status, 200);

  const Json snapshot = Json::parse(c.get("/v1/streams/e2e").body);
  EXPECT_EQ(snapshot.find("stream")->as_string(), "e2e");
  EXPECT_EQ(snapshot.find("samples_seen")->as_number(), 6.0);
  EXPECT_FALSE(snapshot.find("phase")->as_string().empty());

  const Json list = Json::parse(c.get("/v1/streams").body);
  ASSERT_EQ(list.find("streams")->as_array().size(), 1u);
  EXPECT_EQ(list.find("streams")->as_array()[0].as_string(), "e2e");

  // The HTTP bridge and the in-process Monitor are the same object.
  EXPECT_EQ(app_->monitor().snapshot("e2e").samples_seen, 6u);

  // Out-of-order time violates the monitor's contract: 400, state unchanged.
  const serve::http::Response stale =
      c.post_json("/v1/streams/e2e/ingest", R"({"t":2,"value":0.5})");
  EXPECT_EQ(stale.status, 400);
  EXPECT_EQ(app_->monitor().snapshot("e2e").samples_seen, 6u);
}

TEST_F(ServeE2E, BulkIngestRouteAppliesWholeBatchesAtomically) {
  auto c = client();

  Json samples = Json::array();
  for (int i = 0; i < 8; ++i) {
    Json pair = Json::array();
    pair.push_back(Json(static_cast<double>(i)));
    pair.push_back(Json(1.0));
    samples.push_back(std::move(pair));
  }
  Json body = Json::object();
  body["samples"] = std::move(samples);
  const serve::http::Response response =
      c.post_json("/v1/streams/bulk/ingest-batch", body.dump());
  ASSERT_EQ(response.status, 200) << response.body;
  const Json parsed = Json::parse(response.body);
  EXPECT_EQ(parsed.find("accepted")->as_number(), 8.0);
  EXPECT_TRUE(parsed.find("batched")->as_bool());
  EXPECT_EQ(app_->monitor().snapshot("bulk").samples_seen, 8u);

  // A batch with a stale time anywhere must apply none of its samples.
  const serve::http::Response stale = c.post_json(
      "/v1/streams/bulk/ingest-batch", R"({"samples":[[8,1.0],[3,0.5]]})");
  EXPECT_EQ(stale.status, 400);
  EXPECT_NE(Json::parse(stale.body).find("error"), nullptr);
  EXPECT_EQ(app_->monitor().snapshot("bulk").samples_seen, 8u);

  // Batches above the configured cap are rejected before any work happens.
  const std::size_t cap = app_->options().max_batch_samples;
  std::string big = R"({"samples":[)";
  for (std::size_t i = 0; i <= cap; ++i) {
    if (i > 0) big += ',';
    big += '[' + std::to_string(100 + i) + ",1.0]";
  }
  big += "]}";
  const serve::http::Response over =
      c.post_json("/v1/streams/bulk/ingest-batch", big);
  EXPECT_EQ(over.status, 400);
  EXPECT_NE(Json::parse(over.body).find("error")->as_string().find("batch"),
            std::string::npos);
  EXPECT_EQ(app_->monitor().snapshot("bulk").samples_seen, 8u);
}

TEST_F(ServeE2E, MetricsExportBufferPoolAndWritevCounters) {
  auto c = client();
  ASSERT_EQ(c.get("/healthz").status, 200);
  const Json metrics = Json::parse(c.get("/metrics").body);
  const Json* server = metrics.find("server");
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->find("buffer_pool"), nullptr);
  EXPECT_NE(server->find("buffer_pool")->find("acquired"), nullptr);
  EXPECT_NE(server->find("buffer_pool")->find("recycled"), nullptr);
  EXPECT_NE(server->find("buffer_pool")->find("high_water"), nullptr);
  EXPECT_NE(server->find("writev_calls"), nullptr);
  EXPECT_NE(server->find("writev_batches"), nullptr);
  ASSERT_NE(server->find("accept_loops"), nullptr);
  EXPECT_GE(server->find("writev_calls")->as_number(), 1.0);
}

TEST_F(ServeE2E, ErrorContract) {
  auto c = client();

  const serve::http::Response bad_json = c.post_json("/v1/fit", "{not json");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(Json::parse(bad_json.body).find("error"), nullptr);

  const serve::http::Response bad_model = c.post_json(
      "/v1/fit", R"({"series":{"values":[1,0.9,0.8,0.85,0.9]},"model":"nope"})");
  EXPECT_EQ(bad_model.status, 400);
  EXPECT_NE(Json::parse(bad_model.body).find("error")->as_string().find("nope"),
            std::string::npos);

  const serve::http::Response short_series =
      c.post_json("/v1/fit", R"({"series":{"values":[1]}})");
  EXPECT_EQ(short_series.status, 400);

  const serve::http::Response big_holdout = c.post_json(
      "/v1/fit", R"({"series":{"values":[1,0.9,0.8]},"holdout":3})");
  EXPECT_EQ(big_holdout.status, 400);

  EXPECT_EQ(c.get("/v1/nope").status, 404);
  EXPECT_EQ(c.post_json("/healthz", "{}").status, 405);
  EXPECT_EQ(c.get("/v1/fit").status, 405);
}

}  // namespace
