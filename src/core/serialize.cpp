#include "core/serialize.hpp"

#include <fstream>
#include <stdexcept>

namespace prm::core {

namespace {

constexpr int kFormatVersion = 1;

opt::StopReason parse_stop(std::string_view s) {
  if (s == "converged") return opt::StopReason::kConverged;
  if (s == "max-iterations") return opt::StopReason::kMaxIterations;
  if (s == "stalled") return opt::StopReason::kStalled;
  return opt::StopReason::kNumericalFailure;
}

}  // namespace

void save_fit(std::string& out, const FitResult& fit) {
  const std::string name = fit.model().name();
  if (!ModelRegistry::instance().contains(name)) {
    throw std::invalid_argument("save_fit: model '" + name +
                                "' is not registered; loading would fail");
  }
  if (fit.series().name().find('\n') != std::string::npos) {
    throw std::invalid_argument("save_fit: series name must not contain newlines");
  }
  TextWriter w(out);
  w << "prm-fit " << kFormatVersion << '\n';
  w << "model " << name << '\n';
  w << "holdout " << fit.holdout() << '\n';
  w << "parameters ";
  w.list(fit.parameters());
  w << "series " << (fit.series().name().empty() ? "unnamed" : fit.series().name())
    << '\n';
  w << "times ";
  w.list(fit.series().times());
  w << "values ";
  w.list(fit.series().values());
  w << "sse " << fit.sse << '\n';
  w << "stop " << opt::to_string(fit.stop_reason) << '\n';
}

void save_fit(std::ostream& out, const FitResult& fit) {
  std::string text;
  save_fit(text, fit);
  out << text;
}

void save_fit_file(const std::string& path, const FitResult& fit) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_fit_file: cannot open " + path);
  save_fit(out, fit);
  if (!out) throw std::runtime_error("save_fit_file: write failed for " + path);
}

FitResult load_fit(TextReader& in) {
  const char* outer = in.set_context("load_fit");
  in.expect("prm-fit");
  const std::uint64_t version = in.count("format version");
  if (version != kFormatVersion) {
    in.fail("unsupported format version " + std::to_string(version));
  }

  in.expect("model");
  const std::string model_name(in.token("model name"));
  if (!ModelRegistry::instance().contains(model_name)) {
    in.fail("unknown model '" + model_name + "' (register it before loading)");
  }

  in.expect("holdout");
  const std::size_t holdout = in.count("holdout");

  in.expect("parameters");
  const std::vector<double> params = in.list("parameters");

  in.expect("series");
  std::string series_name(in.token("series name"));

  in.expect("times");
  std::vector<double> times = in.list("times");
  in.expect("values");
  std::vector<double> values = in.list("values");
  if (times.size() != values.size()) in.fail("times/values size mismatch");

  in.expect("sse");
  const double sse = in.number("sse");
  in.expect("stop");
  const opt::StopReason stop = parse_stop(in.token("stop reason"));

  ModelPtr model = ModelRegistry::instance().create(model_name);
  if (params.size() != model->num_parameters()) {
    in.fail("parameter count does not match model '" + model_name + "'");
  }
  try {
    data::PerformanceSeries series(std::move(series_name), std::move(times),
                                   std::move(values));
    FitResult fit(std::shared_ptr<const ResilienceModel>(std::move(model)), params,
                  std::move(series), holdout);
    fit.sse = sse;
    fit.stop_reason = stop;
    in.set_context(outer);
    return fit;
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
}

FitResult load_fit(std::istream& in) {
  const std::string text = read_rest(in);
  TextReader reader(text, "load_fit");
  return load_fit(reader);
}

FitResult load_fit_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_fit_file: cannot open " + path);
  return load_fit(in);
}

}  // namespace prm::core
