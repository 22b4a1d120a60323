// prm_cli: command-line front end to the whole pipeline, for users who have
// a CSV and no desire to write C++.
//
//   prm_cli fit       --csv data.csv [--model NAME] [--holdout N]
//                     [--loss squared|huber|cauchy] [--level L] [--save FILE]
//                     [--threads N]
//   prm_cli predict   --fit FILE [--level L]    # reuse a saved fit
//   prm_cli uncertainty --fit FILE [--level L] [--replicates N] [--threads N]
//   prm_cli detect    --csv data.csv            # hazard-onset detection
//   prm_cli monitor   --csv F1,F2,... [--model NAME] [--threads N]
//                     [--refit-every N] [--save FILE] [--load FILE]
//                     [--wal-dir DIR] [--fsync always|interval|never]
//   prm_cli serve     [--port N] [--threads N] [--event-threads N]
//                     [--fit-threads N] [--model NAME]
//                     [--cache N] [--queue N] [--shards N]
//                     [--max-batch N]
//                     [--wal-dir DIR] [--fsync always|interval|never]
//                     [--cluster HOST:PORT --peers A,B,...]   # ring node
//                     [--router on --peers A,B,...]           # thin proxy
//   prm_cli models                              # list registered models
//   prm_cli demo                                # run on a bundled dataset
//   prm_cli help | --help | -h                  # usage on stdout, exit 0
//
// CSV format: "t,value" with a header line; t strictly increasing.
// With --model omitted, every registered model is fit and the best holdout
// PMSE wins (models whose requirements the series cannot meet — e.g. the
// nn family needs more samples than weights — are skipped with a note).
// An unknown --model is rejected with the full registry roster. Unknown
// subcommands and unknown --options are rejected (usage on stderr, exit 1).
// Exit code 0 on success, 1 on CLI errors, 2 on data errors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "core/analysis.hpp"
#include "core/metrics.hpp"
#include "core/predictor.hpp"
#include "core/serialize.hpp"
#include "core/uncertainty.hpp"
#include "data/changepoint.hpp"
#include "data/csv.hpp"
#include "live/monitor.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"

namespace {

using namespace prm;

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> options;
};

/// Options each subcommand accepts; a command absent here is unknown.
const std::map<std::string, std::vector<std::string>>& command_options() {
  static const std::map<std::string, std::vector<std::string>> table = {
      {"fit", {"csv", "model", "holdout", "loss", "level", "save", "threads"}},
      {"predict", {"fit", "level"}},
      {"uncertainty", {"fit", "level", "replicates", "threads"}},
      {"detect", {"csv"}},
      {"monitor",
       {"csv", "model", "threads", "refit-every", "save", "load", "wal-dir", "fsync"}},
      {"serve",
       {"port", "threads", "event-threads", "fit-threads", "model", "cache", "queue",
        "shards", "wal-dir", "fsync", "max-batch", "cluster", "peers",
        "router"}},
      {"models", {}},
      {"demo", {"model", "holdout", "loss", "level", "save", "threads"}},
  };
  return table;
}

void usage(std::ostream& out) {
  out << "usage:\n"
      << "  prm_cli fit     --csv FILE [--model NAME] [--holdout N]\n"
      << "                  [--loss squared|huber|cauchy] [--level L] [--save FILE]\n"
      << "                  [--threads N]   # solver threads (1 = serial, 0 = auto)\n"
      << "                  # --model: a `prm_cli models` name (e.g. quadratic,\n"
      << "                  #   mix-wei-wei-log, nn-6-tanh); omitted = try them all\n"
      << "  prm_cli predict --fit FILE [--level L]\n"
      << "  prm_cli uncertainty --fit FILE [--level L] [--replicates N] [--threads N]\n"
      << "  prm_cli detect  --csv FILE\n"
      << "  prm_cli monitor --csv FILE[,FILE...] [--model NAME] [--threads N]\n"
      << "                  [--refit-every N]  # refit cadence in samples/stream\n"
      << "                  [--save FILE] [--load FILE]  # snapshot out / resume from\n"
      << "                  [--wal-dir DIR] [--fsync always|interval|never]\n"
      << "                  # --wal-dir: write-ahead log; restart replays to the\n"
      << "                  #   exact acknowledged state (excludes --load)\n"
      << "  prm_cli serve   [--port N] [--threads N] [--event-threads N]\n"
      << "                  [--fit-threads N] [--model NAME]\n"
      << "                  [--cache N] [--queue N] [--shards N]  # --port 0 = ephemeral\n"
      << "                  # --threads: HTTP workers; --event-threads: epoll loops,\n"
      << "                  #   one SO_REUSEPORT listener each; --fit-threads: solver\n"
      << "                  #   threads per fit; --cache: fit-cache entries; --queue:\n"
      << "                  #   pending requests before 503\n"
      << "                  # --shards: cache/registry stripes (omit for one per core)\n"
      << "                  [--max-batch N]  # samples accepted per\n"
      << "                  #   /v1/streams/{name}/ingest-batch request\n"
      << "                  [--wal-dir DIR] [--fsync always|interval|never]\n"
      << "                  # --wal-dir: durable write-ahead log; restart resumes state\n"
      << "                  [--cluster HOST:PORT --peers A,B,...]  # join a ring as a\n"
      << "                  #   node: own the streams the consistent-hash ring maps\n"
      << "                  #   here, 307-redirect the rest (--port defaults to the\n"
      << "                  #   --cluster port)\n"
      << "                  [--router on --peers A,B,...]  # stateless front door:\n"
      << "                  #   proxy every stream route to its owning node\n"
      << "  prm_cli models  # registered model names, one per line, with family\n"
      << "  prm_cli demo    # fit the bundled 1990-93 recession (same flags as fit)\n"
      << "  prm_cli help | --help | -h\n";
}

void usage() { usage(std::cerr); }

std::optional<CliArgs> parse(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "prm_cli: missing subcommand\n";
    return std::nullopt;
  }
  CliArgs args;
  args.command = argv[1];
  const auto allowed = command_options().find(args.command);
  if (allowed == command_options().end()) {
    std::cerr << "prm_cli: unknown subcommand '" << args.command << "'\n";
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::cerr << "prm_cli: unexpected argument '" << argv[i] << "'\n";
      return std::nullopt;
    }
    const std::string key = argv[i] + 2;
    const auto& names = allowed->second;
    if (std::find(names.begin(), names.end(), key) == names.end()) {
      std::cerr << "prm_cli: unknown option '--" << key << "' for '" << args.command
                << "'\n";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      std::cerr << "prm_cli: missing value for '--" << key << "'\n";
      return std::nullopt;
    }
    args.options[key] = argv[++i];
  }
  return args;
}

/// Strict positive-integer parse for thread-count options: the whole string
/// must be a base-10 integer >= 1. "0", "-2", "4x" and "" are all rejected.
std::optional<int> parse_positive_int(const std::string& text) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(text, &pos);
    if (pos != text.size() || v < 1 || v > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return static_cast<int>(v);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Fetch `--threads`-style options with strict validation; reports the error
/// itself and leaves `ok` false so callers can exit with the CLI error code.
std::optional<int> threads_option(const CliArgs& args, const std::string& key, bool& ok) {
  ok = true;
  if (!args.options.count(key)) return std::nullopt;
  const std::optional<int> parsed = parse_positive_int(args.options.at(key));
  if (!parsed) {
    std::cerr << "prm_cli: '--" << key << "' must be a positive integer, got '"
              << args.options.at(key) << "'\n";
    ok = false;
  }
  return parsed;
}

/// Validate a --model value against the registry; on an unknown name,
/// print the full roster (the error users actually need) and return false.
bool validate_model_option(const std::string& name) {
  if (core::ModelRegistry::instance().contains(name)) return true;
  std::cerr << "prm_cli: unknown model '" << name << "'; registered models:\n";
  for (const std::string& n : core::ModelRegistry::instance().names()) {
    std::cerr << "  " << n << '\n';
  }
  return false;
}

void print_predictions(const core::FitResult& fit, double level) {
  using report::Table;
  std::cout << "\nPredictions:\n";
  std::cout << "  trough: t = " << core::predict_trough_time(fit) << " at "
            << core::predict_trough_value(fit) << '\n';
  if (const auto tr = core::predict_recovery_time(fit, level)) {
    std::cout << "  recovery to " << level << ": t = " << *tr << '\n';
  } else {
    std::cout << "  recovery to " << level << ": not reached within the search horizon\n";
  }
  std::cout << "\nInterval-based resilience metrics (paper Eqs. 14-21):\n";
  Table metrics({"Metric", "Actual", "Predicted", "Rel. error"});
  for (const core::MetricValue& m : core::predictive_metrics(fit)) {
    metrics.add_row({std::string(core::to_string(m.kind)), Table::fixed(m.actual, 6),
                     Table::fixed(m.predicted, 6), Table::fixed(m.relative_error, 6)});
  }
  metrics.print(std::cout);
}

int run_fit(const data::PerformanceSeries& series, const CliArgs& args) {
  using report::Table;
  const std::size_t holdout =
      args.options.count("holdout")
          ? static_cast<std::size_t>(std::stoul(args.options.at("holdout")))
          : std::max<std::size_t>(series.size() / 10, 1);

  core::FitOptions fit_opts;
  bool threads_ok = false;
  if (const auto threads = threads_option(args, "threads", threads_ok)) {
    fit_opts.multistart.threads = *threads;
  } else if (!threads_ok) {
    return 1;
  }
  if (args.options.count("loss")) {
    const std::string& loss = args.options.at("loss");
    if (loss == "huber") {
      fit_opts.loss = opt::LossKind::kHuber;
    } else if (loss == "cauchy") {
      fit_opts.loss = opt::LossKind::kCauchy;
    } else if (loss != "squared") {
      std::cerr << "unknown loss: " << loss << '\n';
      return 1;
    }
  }

  // Candidate models: the requested one, or all registered.
  std::vector<std::string> names;
  if (args.options.count("model")) {
    if (!validate_model_option(args.options.at("model"))) return 1;
    names.push_back(args.options.at("model"));
  } else {
    names = core::ModelRegistry::instance().names();
  }

  Table ranking({"Model", "SSE", "PMSE", "r2_adj", "EC", "Theil U"});
  std::optional<core::FitResult> best;
  std::optional<core::ValidationReport> best_val;
  double best_pmse = std::numeric_limits<double>::infinity();
  std::vector<std::string> skipped;
  for (const std::string& name : names) {
    // A model can be unfittable on this series (the nn family needs more
    // samples than weights); skip it instead of failing the whole ranking.
    std::optional<core::FitResult> fit;
    try {
      fit = core::fit_model(name, series, holdout, fit_opts);
    } catch (const std::exception& e) {
      ranking.add_row({core::display_label(name), "-", "-", "-", "-", "-"});
      skipped.push_back(name + ": " + e.what());
      continue;
    }
    const core::ValidationReport v = core::validate(*fit);
    ranking.add_row({core::display_label(name), Table::scientific(v.sse, 3),
                     Table::scientific(v.pmse, 3), Table::fixed(v.r2_adj, 4),
                     Table::percent(v.ec), Table::fixed(v.theil_u, 3)});
    if (fit->success() && v.pmse < best_pmse) {
      best_pmse = v.pmse;
      best = std::move(*fit);
      best_val = v;
    }
  }
  ranking.print(std::cout);
  for (const std::string& note : skipped) std::cout << "skipped " << note << '\n';
  if (!best) {
    std::cerr << "no model produced a usable fit\n";
    return 2;
  }

  std::cout << "\nBest model by holdout PMSE: " << core::display_label(best->model().name())
            << "\n\nFitted parameters:\n";
  const auto pnames = best->model().parameter_names();
  for (std::size_t i = 0; i < pnames.size(); ++i) {
    std::cout << "  " << pnames[i] << " = " << best->parameters()[i] << '\n';
  }

  const double level =
      args.options.count("level") ? std::stod(args.options.at("level")) : series.value(0);
  print_predictions(*best, level);

  if (args.options.count("save")) {
    core::save_fit_file(args.options.at("save"), *best);
    std::cout << "\nfit saved to " << args.options.at("save") << '\n';
  }

  report::AsciiPlot plot(90, 20);
  plot.set_title(series.name() + ": data (o), fit (*), 95% CI (.)");
  report::PlotBand band;
  band.times.assign(series.times().begin(), series.times().end());
  band.lower = best_val->band.lower;
  band.upper = best_val->band.upper;
  band.label = "95% CI";
  plot.add_band(band);
  plot.add_series(series, 'o', "data");
  plot.add_series(data::PerformanceSeries("fit", band.times, best_val->predictions), '*',
                  "model");
  plot.add_vertical_marker(series.time(series.size() - holdout - 1), "fit boundary");
  plot.print(std::cout);
  return 0;
}

/// Split "a,b,c" on commas, dropping empty fields.
std::vector<std::string> split_csv_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = (comma == std::string::npos) ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Strip directories and a trailing .csv to name the stream after its file.
std::string stream_name_for(const std::string& path) {
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.size() > 4 && name.compare(name.size() - 4, 4, ".csv") == 0) {
    name = name.substr(0, name.size() - 4);
  }
  return name.empty() ? path : name;
}

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

int run_monitor(const CliArgs& args) {
  using report::Table;
  live::MonitorOptions options;
  if (args.options.count("model")) {
    if (!validate_model_option(args.options.at("model"))) return 1;
    options.model = args.options.at("model");
  }
  bool threads_ok = false;
  if (const auto threads = threads_option(args, "threads", threads_ok)) {
    options.threads = static_cast<std::size_t>(*threads);
  } else if (!threads_ok) {
    return 1;
  }
  if (args.options.count("refit-every")) {
    options.refit_every =
        static_cast<std::size_t>(std::stoul(args.options.at("refit-every")));
  }

  if (args.options.count("wal-dir")) {
    options.wal.dir = args.options.at("wal-dir");
  }
  if (args.options.count("fsync")) {
    options.wal.fsync = wal::fsync_policy_from_string(args.options.at("fsync"));
  }

  std::unique_ptr<live::Monitor> monitor;
  if (!options.wal.dir.empty()) {
    // recover() handles empty, snapshot-only, and snapshot+log directories
    // uniformly; --load is a plain-snapshot path and would fight it.
    if (args.options.count("load")) {
      std::cerr << "prm_cli monitor: --load and --wal-dir are mutually exclusive "
                   "(the WAL directory has its own snapshot)\n";
      return 1;
    }
    monitor = live::Monitor::recover(options);
    const wal::RecoveryStats& rec = monitor->recovery_stats();
    std::cout << "recovered monitor from " << options.wal.dir << ": "
              << monitor->stream_count() << " stream(s), " << rec.applied
              << " of " << rec.records << " log record(s) replayed"
              << (rec.snapshot_loaded ? " on top of the snapshot" : "")
              << (rec.torn_tails ? " (torn tail tolerated)" : "") << '\n';
  } else if (args.options.count("load")) {
    monitor = live::Monitor::load_file(args.options.at("load"), options);
    std::cout << "resumed monitor with " << monitor->stream_count() << " stream(s) from "
              << args.options.at("load") << '\n';
  } else {
    monitor = std::make_unique<live::Monitor>(options);
  }

  monitor->alerts().subscribe([](const live::Alert& alert) {
    std::cout << "[alert] " << alert.rule << ": " << alert.message << '\n';
  });
  live::AlertRule degrading;
  degrading.name = "degrading";
  degrading.kind = live::AlertKind::kPhaseTransition;
  degrading.phase = live::StreamPhase::kDegrading;
  degrading.once_per_event = false;
  live::AlertRule restored;
  restored.name = "restored";
  restored.kind = live::AlertKind::kPhaseTransition;
  restored.phase = live::StreamPhase::kRestored;
  restored.once_per_event = false;
  // A recovered monitor may already have these rules from its own log.
  for (const live::AlertRule& rule : {degrading, restored}) {
    if (!monitor->alerts().has_rule(rule.name)) monitor->add_alert_rule(rule);
  }

  // Merge every file's samples into one global time-ordered replay, so the
  // monitor sees the streams interleaved as a live deployment would.
  struct Sample {
    double t;
    double value;
    std::string stream;
  };
  std::vector<Sample> replay;
  if (args.options.count("csv")) {
    for (const std::string& path : split_csv_list(args.options.at("csv"))) {
      const std::string name = stream_name_for(path);
      const data::PerformanceSeries series = data::read_csv_file(path, name);
      for (std::size_t i = 0; i < series.size(); ++i) {
        replay.push_back({series.time(i), series.value(i), name});
      }
    }
  }
  std::stable_sort(replay.begin(), replay.end(),
                   [](const Sample& a, const Sample& b) { return a.t < b.t; });
  // Ctrl-C mid-replay stops ingesting but still drains, checkpoints, and
  // saves below -- nothing acknowledged is lost.
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::size_t ingested = 0;
  for (const Sample& s : replay) {
    if (g_serve_stop.load()) {
      std::cout << "prm_cli monitor: interrupted after " << ingested
                << " sample(s), shutting down cleanly\n";
      break;
    }
    monitor->ingest(s.stream, s.t, s.value);
    ++ingested;
  }
  monitor->drain();

  std::cout << "\nreplayed " << replay.size() << " sample(s) into "
            << monitor->stream_count() << " stream(s); " << monitor->refits_executed()
            << " refit(s), " << monitor->refits_coalesced() << " coalesced\n\n";
  Table table({"Stream", "Phase", "Samples", "Events", "Pred. t_r", "Refits (warm)"});
  for (const live::StreamSnapshot& snap : monitor->snapshot()) {
    table.add_row({snap.name, std::string(live::to_string(snap.phase)),
                   std::to_string(snap.samples_seen), std::to_string(snap.event_ordinal),
                   snap.predicted_recovery_time
                       ? Table::fixed(*snap.predicted_recovery_time, 2)
                       : std::string("-"),
                   std::to_string(snap.refits) + " (" + std::to_string(snap.warm_refits) +
                       ")"});
  }
  table.print(std::cout);

  if (args.options.count("save")) {
    monitor->save_file(args.options.at("save"));
    std::cout << "\nmonitor state saved to " << args.options.at("save") << '\n';
  }
  if (monitor->wal_enabled()) {
    monitor->shutdown();  // drain, final snapshot, seal + fsync the log
    std::cout << "wal checkpointed in " << options.wal.dir << '\n';
  }
  return 0;
}

int run_serve(const CliArgs& args) {
  serve::AppOptions app_options;
  if (args.options.count("model")) {
    if (!validate_model_option(args.options.at("model"))) return 1;
    app_options.default_model = args.options.at("model");
    app_options.monitor.model = app_options.default_model;
  }
  if (args.options.count("cache")) {
    app_options.cache_capacity =
        static_cast<std::size_t>(std::stoul(args.options.at("cache")));
  }
  bool threads_ok = false;
  if (const auto shards = threads_option(args, "shards", threads_ok)) {
    app_options.cache_shards = static_cast<std::size_t>(*shards);
    app_options.monitor.shards = static_cast<std::size_t>(*shards);
  } else if (!threads_ok) {
    return 1;
  }
  if (const auto max_batch = threads_option(args, "max-batch", threads_ok)) {
    app_options.max_batch_samples = static_cast<std::size_t>(*max_batch);
  } else if (!threads_ok) {
    return 1;
  }
  if (const auto fit_threads = threads_option(args, "fit-threads", threads_ok)) {
    app_options.fit_threads = *fit_threads;
  } else if (!threads_ok) {
    return 1;
  }
  if (args.options.count("wal-dir")) {
    app_options.monitor.wal.dir = args.options.at("wal-dir");
  }
  if (args.options.count("fsync")) {
    app_options.monitor.wal.fsync =
        wal::fsync_policy_from_string(args.options.at("fsync"));
  }
  // Cluster topology: a node (--cluster ADDR) or a router (--router on),
  // never both; either one needs the full membership in --peers.
  cluster::ClusterOptions cluster_options;
  bool cluster_on = false;
  if (args.options.count("router")) {
    const std::string& value = args.options.at("router");
    if (value == "on") {
      cluster_options.router = true;
      cluster_on = true;
    } else if (value != "off") {
      std::cerr << "prm_cli: '--router' must be 'on' or 'off', got '" << value
                << "'\n";
      return 1;
    }
  }
  if (args.options.count("cluster")) {
    if (cluster_options.router) {
      std::cerr << "prm_cli: '--cluster' and '--router on' are mutually exclusive\n";
      return 1;
    }
    cluster_options.self = args.options.at("cluster");
    cluster_on = true;
  }
  if (args.options.count("peers")) {
    const std::string& list = args.options.at("peers");
    for (std::size_t start = 0; start <= list.size();) {
      const std::size_t comma = std::min(list.find(',', start), list.size());
      if (comma > start) {
        cluster_options.peers.push_back(list.substr(start, comma - start));
      }
      start = comma + 1;
    }
  }
  if (cluster_on && cluster_options.peers.empty()) {
    std::cerr << "prm_cli: cluster mode needs '--peers HOST:PORT,HOST:PORT,...'\n";
    return 1;
  }
  if (!cluster_on && !cluster_options.peers.empty()) {
    std::cerr << "prm_cli: '--peers' needs '--cluster ADDR' or '--router on'\n";
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.port = args.options.count("port")
                            ? static_cast<std::uint16_t>(
                                  std::stoul(args.options.at("port")))
                            : 8080;
  if (!args.options.count("port") && !cluster_options.self.empty()) {
    // A node's advertised address IS its endpoint; default the listen port
    // to it so one flag configures both.
    try {
      server_options.port = cluster::parse_peer(cluster_options.self).port;
    } catch (const std::invalid_argument& e) {
      std::cerr << "prm_cli: bad '--cluster' address: " << e.what() << '\n';
      return 1;
    }
  }
  if (const auto threads = threads_option(args, "threads", threads_ok)) {
    server_options.threads = static_cast<std::size_t>(*threads);
  } else if (!threads_ok) {
    return 1;
  }
  if (args.options.count("queue")) {
    server_options.max_pending =
        static_cast<std::size_t>(std::stoul(args.options.at("queue")));
  }
  if (const auto event_threads = threads_option(args, "event-threads", threads_ok)) {
    server_options.event_threads = static_cast<std::size_t>(*event_threads);
  } else if (!threads_ok) {
    return 1;
  }

  serve::App app(app_options);
  if (app.monitor().wal_enabled()) {
    const wal::RecoveryStats& rec = app.monitor().recovery_stats();
    std::cout << "prm_cli serve: wal at " << app_options.monitor.wal.dir << " (fsync "
              << wal::to_string(app_options.monitor.wal.fsync) << "); recovered "
              << app.monitor().stream_count() << " stream(s), " << rec.applied
              << " of " << rec.records << " log record(s) replayed"
              << (rec.torn_tails ? ", torn tail tolerated" : "") << std::endl;
  }
  if (cluster_on) {
    try {
      app.enable_cluster(cluster_options);
    } catch (const std::invalid_argument& e) {
      std::cerr << "prm_cli: bad cluster topology: " << e.what() << '\n';
      return 1;
    }
    const cluster::Cluster& cluster = *app.cluster();
    std::cout << "prm_cli serve: cluster "
              << (cluster.router() ? std::string("router")
                                   : "node " + cluster.self())
              << " over " << cluster.ring().size() << " peer(s), "
              << cluster.ring().vnodes_per_node() << " vnodes each" << std::endl;
  }
  serve::Server server(server_options, app.async_handler());
  server.start();
  app.set_stats_provider([&server] { return server.stats(); });

  // The "listening on" line is the startup contract: CI and scripts poll for
  // it (and parse the ephemeral port from it), so flush immediately.
  std::cout << "prm_cli serve: listening on " << server_options.bind_address << ':'
            << server.port() << " (" << server_options.event_threads
            << " epoll loop(s), " << server_options.threads
            << " worker thread(s), fit cache " << app.fit_cache().capacity() << " in "
            << app.fit_cache().shards() << " shard(s), model '"
            << app.options().default_model << "')" << std::endl;
  std::cout << "routes: /healthz /metrics /v1/models /v1/fit /v1/forecast "
               "/v1/metrics /v1/streams /v1/cluster; Ctrl-C stops" << std::endl;

  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "prm_cli serve: shutting down\n";
  server.stop();  // stop accepting and drain the worker queue first
  // A router's proxied requests still in flight upstream complete into the
  // server: fail them now, while it exists. ~App would fail them after
  // ~Server, into freed memory.
  if (app.cluster() && app.cluster()->upstreams()) app.cluster()->upstreams()->stop();
  if (app.monitor().wal_enabled()) {
    app.monitor().shutdown();  // drain refits, final snapshot, seal + fsync
    std::cout << "prm_cli serve: wal checkpointed\n";
  }
  const serve::ServerStats stats = server.stats();
  std::cout << "served " << stats.requests_total << " request(s), rejected "
            << stats.connections_rejected << " on overload\n";
  return 0;
}

int run_detect(const data::PerformanceSeries& series) {
  const auto onset = data::find_hazard_onset(series);
  if (!onset) {
    std::cout << "no hazard onset detected\n";
    return 0;
  }
  std::cout << "hazard onset detected:\n"
            << "  performance peak at sample " << onset->peak_index << " (t = "
            << series.time(onset->peak_index) << ")\n"
            << "  decline alarm at sample " << onset->alarm_index << '\n'
            << "  aligned series: " << onset->aligned.size()
            << " samples, trough depth "
            << 1.0 - onset->aligned.trough_value() << '\n';
  std::cout << "re-run `prm_cli fit` on the aligned series to model the event\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string_view first = argv[1];
    if (first == "help" || first == "--help" || first == "-h") {
      usage(std::cout);
      return 0;
    }
  }
  const auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 1;
  }

  try {
    if (args->command == "models") {
      for (const std::string& name : core::ModelRegistry::instance().names()) {
        const core::ModelPtr m = core::ModelRegistry::instance().create(name);
        std::cout << name << "  (" << core::model_family(name) << ", "
                  << m->num_parameters() << " params)  " << m->description() << '\n';
      }
      return 0;
    }
    if (args->command == "demo") {
      CliArgs demo = *args;
      std::cout << "running on the bundled 1990-93 recession dataset\n\n";
      return run_fit(data::recession("1990-93").series, demo);
    }
    if (args->command == "predict") {
      if (!args->options.count("fit")) {
        usage();
        return 1;
      }
      const core::FitResult fit = core::load_fit_file(args->options.at("fit"));
      std::cout << "loaded " << core::display_label(fit.model().name()) << " fit on '"
                << fit.series().name() << "' (" << fit.series().size() << " samples)\n";
      const double level = args->options.count("level")
                               ? std::stod(args->options.at("level"))
                               : fit.series().value(0);
      print_predictions(fit, level);
      return 0;
    }
    if (args->command == "uncertainty") {
      if (!args->options.count("fit")) {
        usage();
        return 1;
      }
      const core::FitResult fit = core::load_fit_file(args->options.at("fit"));
      core::UncertaintyOptions opts;
      bool threads_ok = false;
      if (const auto threads = threads_option(*args, "threads", threads_ok)) {
        opts.threads = *threads;
      } else if (!threads_ok) {
        usage();
        return 1;
      }
      if (args->options.count("replicates")) {
        opts.replicates = std::stoi(args->options.at("replicates"));
      }
      if (args->options.count("level")) {
        opts.recovery_level = std::stod(args->options.at("level"));
      } else {
        opts.recovery_level = fit.series().value(0);
      }
      const core::UncertaintyResult u = core::prediction_uncertainty(fit, opts);
      using report::Table;
      std::cout << "Monte Carlo prediction intervals ("
                << Table::percent(100.0 * (1.0 - opts.alpha), 0) << " central, "
                << u.replicates_used << " bootstrap refits):\n";
      Table t({"Quantity", "Point", "Lower", "Upper"});
      t.add_row({"recovery time to " + std::to_string(opts.recovery_level),
                 Table::fixed(u.recovery_time.point, 2),
                 Table::fixed(u.recovery_time.lower, 2),
                 Table::fixed(u.recovery_time.upper, 2)});
      t.add_row({"trough time", Table::fixed(u.trough_time.point, 2),
                 Table::fixed(u.trough_time.lower, 2),
                 Table::fixed(u.trough_time.upper, 2)});
      t.add_row({"trough value", Table::fixed(u.trough_value.point, 4),
                 Table::fixed(u.trough_value.lower, 4),
                 Table::fixed(u.trough_value.upper, 4)});
      for (const auto& [kind, est] : u.metrics) {
        t.add_row({std::string(core::to_string(kind)), Table::fixed(est.point, 4),
                   Table::fixed(est.lower, 4), Table::fixed(est.upper, 4)});
      }
      t.print(std::cout);
      if (u.no_recovery_rate > 0.0) {
        std::cout << report::Table::percent(u.no_recovery_rate, 1)
                  << " of replicates never reach the recovery level\n";
      }
      return 0;
    }
    if (args->command == "monitor") {
      if (!args->options.count("csv") && !args->options.count("load") &&
          !args->options.count("wal-dir")) {
        usage();
        return 1;
      }
      return run_monitor(*args);
    }
    if (args->command == "serve") {
      return run_serve(*args);
    }
    if (args->command == "fit" || args->command == "detect") {
      if (!args->options.count("csv")) {
        usage();
        return 1;
      }
      const data::PerformanceSeries series =
          data::read_csv_file(args->options.at("csv"), args->options.at("csv"));
      return args->command == "fit" ? run_fit(series, *args) : run_detect(series);
    }
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
