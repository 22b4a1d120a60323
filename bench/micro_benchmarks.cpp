// Google-benchmark micro benchmarks: throughput of the hot paths (model
// evaluation, full fits, metric computation, quadrature, special functions)
// so regressions in the numeric substrate are visible.
//
// Usage: micro_benchmarks [--json <path>] [google-benchmark flags...]
// --json writes the per-benchmark results (name, iterations, real/cpu time,
// user counters) as a JSON document alongside the usual console table, so CI
// can archive and diff runs without parsing console output.
#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"

#include "core/analysis.hpp"
#include "core/bathtub.hpp"
#include "core/metrics.hpp"
#include "core/mixture.hpp"
#include "core/rolling.hpp"
#include "live/monitor.hpp"
#include "numerics/integrate.hpp"
#include "numerics/special_functions.hpp"
#include "optimize/levenberg_marquardt.hpp"
#include "par/parallel.hpp"
#include "par/task_pool.hpp"

#ifndef PRM_BUILD_INFO
#define PRM_BUILD_INFO "unknown"
#endif

namespace {

using namespace prm;

void BM_QuadraticEvaluate(benchmark::State& state) {
  const core::QuadraticBathtubModel m;
  const num::Vector p{1.0, -0.04, 0.0008};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.evaluate(t, p));
    t += 0.001;
  }
}
BENCHMARK(BM_QuadraticEvaluate);

void BM_CompetingRisksEvaluate(benchmark::State& state) {
  const core::CompetingRisksModel m;
  const num::Vector p{1.0, 0.25, 0.0008};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.evaluate(t, p));
    t += 0.001;
  }
}
BENCHMARK(BM_CompetingRisksEvaluate);

void BM_MixtureEvaluate(benchmark::State& state) {
  const core::MixtureModel m(
      {core::Family::kWeibull, core::Family::kWeibull, core::RecoveryTrend::kLogarithmic});
  const num::Vector p{14.0, 2.2, 30.0, 2.5, 0.28};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.evaluate(t, p));
    t += 0.001;
  }
}
BENCHMARK(BM_MixtureEvaluate);

void BM_FitQuadratic(benchmark::State& state) {
  const auto& ds = data::recession("1990-93");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("quadratic", ds.series, ds.holdout));
  }
}
BENCHMARK(BM_FitQuadratic)->Unit(benchmark::kMillisecond);

void BM_FitCompetingRisks(benchmark::State& state) {
  const auto& ds = data::recession("1990-93");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("competing-risks", ds.series, ds.holdout));
  }
}
BENCHMARK(BM_FitCompetingRisks)->Unit(benchmark::kMillisecond);

void BM_FitWeiWeiMixture(benchmark::State& state) {
  const auto& ds = data::recession("1990-93");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("mix-wei-wei-log", ds.series, ds.holdout));
  }
}
BENCHMARK(BM_FitWeiWeiMixture)->Unit(benchmark::kMillisecond);

void BM_FitExpExpMixture(benchmark::State& state) {
  const auto& ds = data::recession("1990-93");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("mix-exp-exp-log", ds.series, ds.holdout));
  }
}
BENCHMARK(BM_FitExpExpMixture)->Unit(benchmark::kMillisecond);

void BM_PredictiveMetrics(benchmark::State& state) {
  const auto& ds = data::recession("1990-93");
  const auto fit = core::fit_model("competing-risks", ds.series, ds.holdout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::predictive_metrics(fit));
  }
}
BENCHMARK(BM_PredictiveMetrics);

void BM_AdaptiveSimpson(benchmark::State& state) {
  const core::MixtureModel m(
      {core::Family::kWeibull, core::Family::kExponential, core::RecoveryTrend::kLogarithmic});
  const num::Vector p{14.0, 2.2, 0.05, 0.28};
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::adaptive_simpson(
        [&m, &p](double t) { return m.evaluate(t, p); }, 0.0, 47.0, 1e-10));
  }
}
BENCHMARK(BM_AdaptiveSimpson);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.0001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::normal_quantile(p));
    p += 1e-7;
    if (p >= 1.0) p = 0.0001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_RefitCold(benchmark::State& state) {
  // A refit from scratch: for competing-risks under the plain SSE, LM from
  // the one variable-projection start (DESIGN.md section 10.5).
  const auto& ds = data::recession("1990-93");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("competing-risks", ds.series, 0));
  }
}
BENCHMARK(BM_RefitCold)->Unit(benchmark::kMillisecond);

void BM_RefitWarm(benchmark::State& state) {
  // A refit seeded with the previous optimum, as live::Monitor passes it.
  // Competing-risks declines the seed under the plain SSE, because its cold
  // start is exact and cheaper than LM from the seed plus a jittered copy,
  // so this times the same path as BM_RefitCold; a model or policy change
  // that brings the warm path back shows up as a gap between the two.
  const auto& ds = data::recession("1990-93");
  const auto cold = core::fit_model("competing-risks", ds.series, 0);
  core::FitOptions opts;
  opts.warm_start = cold.parameters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model("competing-risks", ds.series, 0, opts));
  }
}
BENCHMARK(BM_RefitWarm)->Unit(benchmark::kMillisecond);

void BM_MonitorIngest(benchmark::State& state) {
  // Steady-state ingest throughput (samples/sec) across many streams: ring
  // push + incremental CUSUM + registry lookup, no refits (values stay
  // nominal so no event ever forms).
  const int num_streams = static_cast<int>(state.range(0));
  live::MonitorOptions options;
  options.threads = 1;
  live::Monitor monitor(options);
  std::vector<std::string> names;
  for (int i = 0; i < num_streams; ++i) {
    std::string name = "stream-";  // two-step append: gcc 12 -Wrestrict
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  double t = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    // Tiny bounded wobble, never a sustained drop: detector stays quiet.
    const double v = 1.0 + 1e-4 * std::sin(0.1 * t);
    monitor.ingest(names[i % names.size()], t, v);
    t += 1.0;
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorIngest)->Arg(1)->Arg(32)->Arg(1000);

void BM_MultistartFitThreads(benchmark::State& state) {
  // Scaling curve for the parallel fit engine: an 8-start multistart on the
  // 5-parameter Weibull-Weibull mixture, with the start fan-out running on
  // the prm::par pool. The fitted parameters are bit-identical at every
  // thread count (per-index seeding + fixed-order reduction); only the
  // wall-clock changes. The "threads" counter records the requested width so
  // JSON consumers can compute speedup vs the Arg(1) row.
  const auto& ds = data::recession("1990-93");
  core::FitOptions opts;
  opts.multistart.sampled_starts = 8;
  opts.multistart.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::fit_model("mix-wei-wei-log", ds.series, ds.holdout, opts));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MultistartFitThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FitJacobianMode(benchmark::State& state) {
  // Analytic (dual-number) Jacobian vs the central-difference fallback on
  // the same serial fit. Arg: 1 = analytic, 0 = numeric. The
  // "function_evaluations" counter is the per-fit residual-sweep count; the
  // numeric mode pays 2 * num_parameters sweeps per LM Jacobian, so the gap
  // is deterministic and shows up even on one core.
  const auto& ds = data::recession("1990-93");
  core::FitOptions opts;
  opts.analytic_jacobian = state.range(0) == 1;
  double evals = 0.0;
  double fits = 0.0;
  for (auto _ : state) {
    const core::FitResult fit =
        core::fit_model("mix-wei-wei-log", ds.series, ds.holdout, opts);
    evals += static_cast<double>(fit.function_evaluations);
    fits += 1.0;
    benchmark::DoNotOptimize(fit);
  }
  state.counters["function_evaluations"] = fits > 0.0 ? evals / fits : 0.0;
}
BENCHMARK(BM_FitJacobianMode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RollingOriginThreads(benchmark::State& state) {
  // Concurrent rolling-origin validation: each origin fits an independent
  // prefix, so the whole sweep fans out on the pool.
  const auto& ds = data::recession("1990-93");
  core::RollingOptions opts;
  opts.horizon = 4;
  opts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rolling_origin("quadratic", ds.series, opts));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RollingOriginThreads)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FullTableOneColumn(benchmark::State& state) {
  // One complete Table I cell block: fit + validate on one dataset.
  const auto& ds = data::recession("2001-05");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze("competing-risks", ds));
  }
}
BENCHMARK(BM_FullTableOneColumn)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects every per-iteration run so the
/// custom main below can dump them as JSON (serve::Json is the in-tree
/// serializer; no dependency on benchmark's own JSONReporter output format).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      serve::Json entry = serve::Json::object();
      entry["name"] = serve::Json(run.benchmark_name());
      entry["iterations"] = serve::Json(static_cast<double>(run.iterations));
      entry["real_time"] = serve::Json(run.GetAdjustedRealTime());
      entry["cpu_time"] = serve::Json(run.GetAdjustedCPUTime());
      entry["time_unit"] = serve::Json(benchmark::GetTimeUnitString(run.time_unit));
      if (!run.counters.empty()) {
        serve::Json counters = serve::Json::object();
        for (const auto& [name, counter] : run.counters) {
          counters[name] = serve::Json(static_cast<double>(counter));
        }
        entry["counters"] = std::move(counters);
      }
      collected_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  serve::Json document() const {
    serve::Json doc = serve::Json::object();
    // Machine/build context so archived runs are comparable: thread budget of
    // the box, the pool size auto mode would pick, and what was built.
    serve::Json context = serve::Json::object();
    context["hardware_concurrency"] =
        serve::Json(static_cast<double>(std::thread::hardware_concurrency()));
    context["pool_default_threads"] =
        serve::Json(static_cast<double>(par::TaskPool::default_threads()));
    context["build"] = serve::Json(std::string(PRM_BUILD_INFO));
    context["compiler"] = serve::Json(std::string(__VERSION__));
    doc["context"] = std::move(context);
    serve::Json list = serve::Json::array();
    for (const serve::Json& entry : collected_) list.push_back(entry);
    doc["benchmarks"] = std::move(list);
    return doc;
  }

 private:
  std::vector<serve::Json> collected_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip "--json <path>" before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "micro_benchmarks: --json requires a file path\n";
        return 1;
      }
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "micro_benchmarks: cannot write '" << json_path << "'\n";
      return 1;
    }
    out << reporter.document().dump() << '\n';
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
