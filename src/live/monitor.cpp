#include "live/monitor.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/model.hpp"
#include "core/predictor.hpp"
#include "core/serialize.hpp"
#include "par/parallel.hpp"
#include "par/task_pool.hpp"
#include "wal/compact.hpp"

namespace prm::live {

namespace {

constexpr int kFormatVersion = 2;

/// splitmix64 finalizer over std::hash so shard selection stays uniform even
/// for the short sequential stream names real deployments use.
std::size_t shard_of(const std::string& name, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  std::uint64_t x = static_cast<std::uint64_t>(std::hash<std::string>{}(name));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shard_count);
}

[[noreturn]] void replay_fail(const std::string& what) {
  throw std::runtime_error("Monitor::recover: " + what);
}

void write_optional(core::TextWriter& out, const std::optional<double>& v) {
  out << ' ' << (v ? 1 : 0) << ' ' << (v ? *v : 0.0);
}

std::optional<double> read_optional(core::TextReader& in, std::string_view key) {
  const std::uint64_t has = in.count(key);
  const double v = in.number(key);
  return has ? std::optional<double>(v) : std::nullopt;
}

/// Alert-rule line: "<kind> <threshold> <has_phase> <phase> <once> <name>".
/// The name goes LAST and is read to end of line, so rule names may contain
/// spaces. Shared by the snapshot format and the kAlertRule WAL payload.
void write_rule(core::TextWriter& out, const AlertRule& rule) {
  out << to_string(rule.kind) << ' ' << rule.threshold << ' ' << (rule.phase ? 1 : 0)
      << ' ' << to_string(rule.phase ? *rule.phase : StreamPhase::kNominal) << ' '
      << (rule.once_per_event ? 1 : 0) << ' ' << rule.name;
}

AlertRule read_rule(core::TextReader& in) {
  AlertRule rule;
  try {
    rule.kind = alert_kind_from_string(in.token("alert rule kind"));
    rule.threshold = in.number("alert rule threshold");
    const bool has_phase = in.count("alert rule") != 0;
    const std::string_view phase = in.token("alert rule phase");
    if (has_phase) rule.phase = phase_from_string(phase);
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
  rule.once_per_event = in.count("alert rule") != 0;
  rule.name = in.rest_of_line();
  if (rule.name.empty()) in.fail("alert rule with empty name");
  return rule;
}

/// The WAL records of one recovery, parsed once into replay form. An op is
/// small and flat: its stream is an index into the plan's distinct names
/// (views into the payloads, which outlive the plan), and its samples and
/// refit result sit in the plan's side tables. Mutations of a stream sort
/// by (name, incarnation, rank): the create of an incarnation first (rank
/// 0), its ingest/refit ops by their per-stream sequence number, its remove
/// last. That keying -- not the segment file a record sat in -- defines
/// replay order, which keeps recovery correct even across a shard-count
/// change.
struct ReplayOp {
  wal::RecordType type = wal::RecordType::kIngest;
  std::uint32_t stream = 0;  ///< Index of the stream's name in ReplayPlan::names.
  std::uint64_t incarnation = 0;
  std::uint64_t rank = 0;  ///< The per-stream sequence number of a mutation.
  std::size_t first = 0;   ///< Ingests: first sample; kRefit: index in refits.
  std::size_t count = 0;   ///< Ingests: number of samples.
};

struct RefitOp {
  std::uint64_t ordinal = 0;
  bool warm = false;
  std::optional<double> predicted_recovery;
  double predicted_trough_time = 0.0;
  double predicted_trough_value = 0.0;
  core::FitResult fit;
};

struct ReplayPlan {
  std::vector<ReplayOp> ops;
  std::vector<std::pair<double, double>> samples;
  std::vector<RefitOp> refits;
  std::vector<std::pair<std::uint64_t, AlertRule>> rules;
  std::vector<std::string_view> names;  ///< Distinct stream names, first seen first.
  std::unordered_map<std::string_view, std::uint32_t> name_ids;

  std::uint32_t intern(std::string_view name) {
    const auto [it, fresh] =
        name_ids.try_emplace(name, static_cast<std::uint32_t>(names.size()));
    if (fresh) names.push_back(name);
    return it->second;
  }
};

void parse_record(const wal::Record& record, ReplayPlan& plan) {
  core::TextReader in(record.payload, "Monitor::recover");
  if (record.type == wal::RecordType::kAlertRule) {
    const std::uint64_t seq = in.count("alert-rule sequence");
    plan.rules.emplace_back(seq, read_rule(in));
    return;
  }
  ReplayOp op;
  op.type = record.type;
  op.incarnation = in.count("incarnation");
  switch (record.type) {
    case wal::RecordType::kStreamCreate:
      op.stream = plan.intern(in.token("stream name"));
      op.rank = 0;
      break;
    case wal::RecordType::kStreamRemove:
      op.stream = plan.intern(in.token("stream name"));
      op.rank = std::numeric_limits<std::uint64_t>::max();
      break;
    case wal::RecordType::kIngest:
      op.rank = in.count("sequence number");
      op.stream = plan.intern(in.token("stream name"));
      op.first = plan.samples.size();
      op.count = 1;
      {
        const double t = in.number("ingest time");
        plan.samples.emplace_back(t, in.number("ingest value"));
      }
      break;
    case wal::RecordType::kIngestBatch: {
      op.rank = in.count("sequence number");
      op.stream = plan.intern(in.token("stream name"));
      const std::uint64_t n = in.count("ingest-batch size");
      if (n == 0) in.fail("empty ingest-batch record");
      // A sample takes at least four bytes (" t v").
      if (n > in.remaining() / 4) in.fail("truncated ingest-batch record");
      op.first = plan.samples.size();
      op.count = static_cast<std::size_t>(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const double t = in.number("ingest-batch time");
        plan.samples.emplace_back(t, in.number("ingest-batch value"));
      }
      break;
    }
    case wal::RecordType::kRefitFail:
      op.rank = in.count("sequence number");
      op.stream = plan.intern(in.token("stream name"));
      break;
    case wal::RecordType::kRefit: {
      op.rank = in.count("sequence number");
      const std::uint64_t ordinal = in.count("refit ordinal");
      const bool warm = in.count("refit warm flag") != 0;
      op.stream = plan.intern(in.token("stream name"));
      in.expect("predicted");
      const std::optional<double> predicted_recovery = read_optional(in, "predicted");
      const double trough_time = in.number("predicted");
      const double trough_value = in.number("predicted");
      op.first = plan.refits.size();
      plan.refits.push_back(RefitOp{ordinal, warm, predicted_recovery, trough_time,
                                    trough_value, core::load_fit(in)});
      break;
    }
    default:
      in.fail("unknown record type " +
              std::to_string(static_cast<unsigned>(record.type)));
  }
  plan.ops.push_back(op);
}

}  // namespace

Monitor::Monitor(MonitorOptions options) : Monitor(std::move(options), DeferWalTag{}) {
  if (!options_.wal.dir.empty()) attach_wal();
}

Monitor::Monitor(MonitorOptions options, DeferWalTag)
    : options_(std::move(options)),
      scheduler_(options_.threads, /*deferred=*/options_.batched_refits) {
  if (options_.refit_every == 0) {
    throw std::invalid_argument("Monitor: refit_every must be >= 1");
  }
  if (!(options_.horizon_factor > 1.0)) {
    throw std::invalid_argument("Monitor: horizon_factor must exceed 1");
  }
  const auto model = core::ModelRegistry::instance().create(options_.model);
  model_parameters_ = model->num_parameters();
  min_fit_samples_ = std::max(options_.min_fit_samples, model_parameters_ + 2);
  // Surface a bad stream config at construction, not at first ingest.
  [[maybe_unused]] StreamState probe("probe", options_.stream);

  std::size_t shards = options_.shards;
  if (shards == 0) shards = par::TaskPool::default_threads();
  if (shards < 1) shards = 1;
  registry_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    registry_.push_back(std::make_unique<RegistryShard>());
  }
}

Monitor::~Monitor() { stop_maintenance(); }

void Monitor::attach_wal() {
  // Refuse a directory that already holds state: blindly appending a second
  // history next to an old snapshot would fork the log. recover() is the one
  // entry point for existing state.
  const std::string& dir = options_.wal.dir;
  if (wal::file_exists(wal::snapshot_path(dir)) ||
      (wal::file_exists(dir) && !wal::list_segments(dir).empty())) {
    throw std::runtime_error("Monitor: WAL directory '" + dir +
                             "' already contains state; boot with Monitor::recover");
  }
  wal_ = std::make_unique<wal::Wal>(options_.wal, registry_.size());
  start_maintenance();
}

void Monitor::start_maintenance() {
  if (!wal_ || options_.wal.compact_check_ms <= 0) return;
  maintenance_ = std::thread([this] { maintenance_main(); });
}

void Monitor::stop_maintenance() {
  {
    std::lock_guard<std::mutex> lock(maintenance_m_);
    stop_maintenance_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
}

void Monitor::maintenance_main() {
  const auto interval = std::chrono::milliseconds(options_.wal.compact_check_ms);
  std::unique_lock<std::mutex> lock(maintenance_m_);
  while (!stop_maintenance_) {
    if (maintenance_cv_.wait_for(lock, interval,
                                 [this] { return stop_maintenance_; })) {
      break;
    }
    lock.unlock();
    if (wal_->disk_bytes() >= options_.wal.compact_bytes) {
      try {
        checkpoint();
      } catch (...) {
        // Snapshot I/O failed; the log keeps growing and the next cycle
        // retries. Durability of acknowledged writes is unaffected.
      }
    }
    lock.lock();
  }
}

Monitor::RegistryShard& Monitor::shard_for(const std::string& name) {
  return *registry_[shard_of(name, registry_.size())];
}

const Monitor::RegistryShard& Monitor::shard_for(const std::string& name) const {
  return *registry_[shard_of(name, registry_.size())];
}

std::size_t Monitor::shard_index_of(const std::string& name) const {
  return shard_of(name, registry_.size());
}

Monitor::Entry& Monitor::entry_for(const std::string& name) {
  RegistryShard& shard = shard_for(name);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.streams.find(name);
    if (it != shard.streams.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.streams.find(name);  // double-checked: another thread may have won
  if (it == shard.streams.end()) {
    if (owned_ && !owned_(name)) {
      throw std::domain_error("Monitor: stream '" + name +
                              "' is not owned by this node");
    }
    // Construct before inserting: a throwing StreamState ctor (bad stream
    // name) must not leave a null entry in the registry. The incarnation
    // counter advances WAL on or off so snapshots stay byte-identical, and
    // the create record is appended BEFORE the entry becomes visible.
    auto entry = std::make_unique<Entry>(name, options_.stream);
    entry->incarnation = incarnation_counter_.fetch_add(1) + 1;
    if (wal_) {
      std::string payload;
      core::TextWriter(payload) << entry->incarnation << ' ' << name;
      wal_->append(shard_index_of(name),
                   wal::Record{wal::RecordType::kStreamCreate, std::move(payload)});
    }
    it = shard.streams.emplace(name, std::move(entry)).first;
  }
  return *it->second;
}

Monitor::IngestEffects Monitor::apply_ingest_locked(Entry& entry, double t,
                                                    double value) {
  IngestEffects fx;
  fx.transitions = entry.state.push(t, value);
  fx.phase_after = entry.state.phase();
  fx.ordinal = entry.state.event_ordinal();

  for (const TransitionEvent& tr : fx.transitions) {
    if (tr.to == StreamPhase::kDegrading && tr.from != StreamPhase::kRecovering) {
      fx.new_event = true;  // fresh disruption, not a W-shape back-edge
    }
  }
  if (fx.new_event) {
    entry.predicted_recovery.reset();
    entry.predicted_trough_time.reset();
    entry.predicted_trough_value.reset();
    entry.samples_at_last_refit = 0;
    entry.state.set_predicted_recovery(std::nullopt);
  }

  if (entry.state.event_active() && entry.state.event_size() >= min_fit_samples_ &&
      entry.state.event_size() >= entry.samples_at_last_refit + options_.refit_every) {
    fx.want_refit = true;
    entry.samples_at_last_refit = entry.state.event_size();
  }
  return fx;
}

std::vector<TransitionEvent> Monitor::ingest(const std::string& stream, double t,
                                             double value) {
  IngestEffects fx;
  Entry* entry_ptr = nullptr;
  for (;;) {
    Entry& entry = entry_for(stream);
    std::lock_guard<std::mutex> lock(entry.m);
    if (entry.removed) continue;  // raced remove_stream; retry creates afresh

    // Validate first so a sample push() would reject is never logged; then
    // append BEFORE applying, in the same critical section, so the log order
    // of a stream's records is exactly the order they mutated its state.
    entry.state.validate_push(t, value);
    if (wal_) {
      std::string payload;
      core::TextWriter(payload) << entry.incarnation << ' ' << (entry.wal_seq + 1) << ' '
                                << stream << ' ' << t << ' ' << value;
      wal_->append(shard_index_of(stream),
                   wal::Record{wal::RecordType::kIngest, std::move(payload)});
    }
    entry.wal_seq += 1;
    fx = apply_ingest_locked(entry, t, value);
    entry_ptr = &entry;
    break;
  }

  // Alerts and refit scheduling happen outside the entry lock: callbacks may
  // be slow, and a refit job locking entry.m must not deadlock with us.
  if (fx.new_event) alerts_.reset_stream(stream);
  for (const TransitionEvent& tr : fx.transitions) alerts_.on_transition(stream, tr);
  alerts_.on_sample(stream, t, value, fx.phase_after);

  if (fx.want_refit) {
    // The job snapshots the event at EXECUTION time, not here: the scheduler
    // coalesces bursts, and the surviving job should fit the freshest data
    // (and warm-start from whatever fit landed in the meantime).
    const std::uint64_t ordinal = fx.ordinal;
    scheduler_.schedule(stream, [this, entry_ptr, stream, ordinal] {
      refit_job(*entry_ptr, stream, ordinal);
    });
  }
  return fx.transitions;
}

std::vector<TransitionEvent> Monitor::ingest_batch(
    const std::string& stream,
    const std::vector<std::pair<double, double>>& samples) {
  if (samples.empty()) return {};
  if (samples.size() == 1) return ingest(stream, samples[0].first, samples[0].second);

  std::vector<IngestEffects> effects;
  effects.reserve(samples.size());
  Entry* entry_ptr = nullptr;
  for (;;) {
    Entry& entry = entry_for(stream);
    std::lock_guard<std::mutex> lock(entry.m);
    if (entry.removed) continue;  // raced remove_stream; retry creates afresh

    // Validate the WHOLE batch before logging or applying anything: the
    // batch is one CRC-framed record on disk (fully applied or fully torn),
    // so it must be all-or-nothing in memory too. The first sample checks
    // against the stream's last time exactly like ingest(); the rest check
    // finiteness and within-batch monotonicity with the same error text
    // StreamState::push would produce.
    entry.state.validate_push(samples[0].first, samples[0].second);
    double last_t = samples[0].first;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const double t = samples[i].first;
      const double value = samples[i].second;
      if (!std::isfinite(t) || !std::isfinite(value)) {
        throw std::invalid_argument("StreamState::push: non-finite sample");
      }
      if (t <= last_t) {
        throw std::invalid_argument(
            "StreamState::push: times must be strictly increasing (t = " +
            std::to_string(t) + " after " + std::to_string(last_t) +
            " on stream '" + stream + "')");
      }
      last_t = t;
    }

    if (wal_) {
      std::string payload;
      core::TextWriter w(payload);
      w << entry.incarnation << ' ' << (entry.wal_seq + 1) << ' ' << stream << ' '
        << samples.size();
      for (const auto& [t, value] : samples) w << ' ' << t << ' ' << value;
      wal_->append(shard_index_of(stream),
                   wal::Record{wal::RecordType::kIngestBatch, std::move(payload)});
    }
    entry.wal_seq += 1;  // the whole batch is ONE sequencing step
    for (const auto& [t, value] : samples) {
      effects.push_back(apply_ingest_locked(entry, t, value));
    }
    entry_ptr = &entry;
    break;
  }

  // Alerts and refit scheduling outside the entry lock, per sample in the
  // order they were applied -- identical observable effects to a loop of
  // single ingests, minus the per-sample lock/log round trips.
  std::vector<TransitionEvent> all;
  bool want_refit = false;
  std::uint64_t ordinal = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const IngestEffects& fx = effects[i];
    if (fx.new_event) alerts_.reset_stream(stream);
    for (const TransitionEvent& tr : fx.transitions) {
      alerts_.on_transition(stream, tr);
      all.push_back(tr);
    }
    alerts_.on_sample(stream, samples[i].first, samples[i].second, fx.phase_after);
    if (fx.want_refit) {
      // Coalesce like the scheduler would: one job, freshest ordinal.
      want_refit = true;
      ordinal = fx.ordinal;
    }
  }
  if (want_refit) {
    scheduler_.schedule(stream, [this, entry_ptr, stream, ordinal] {
      refit_job(*entry_ptr, stream, ordinal);
    });
  }
  return all;
}

bool Monitor::remove_stream(const std::string& stream) {
  RegistryShard& shard = shard_for(stream);
  std::unique_ptr<Entry> victim;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.streams.find(stream);
    if (it == shard.streams.end()) return false;
    Entry& entry = *it->second;
    {
      std::lock_guard<std::mutex> entry_lock(entry.m);
      if (wal_) {
        std::string payload;
        core::TextWriter(payload) << entry.incarnation << ' ' << stream;
        wal_->append(shard_index_of(stream),
                     wal::Record{wal::RecordType::kStreamRemove, std::move(payload)});
      }
      entry.removed = true;
    }
    victim = std::move(it->second);
    shard.streams.erase(it);
  }
  {
    // Park, don't destroy: an in-flight refit job may still hold a raw
    // pointer to the entry; it will lock entry.m, see `removed`, and bail.
    std::lock_guard<std::mutex> lock(graveyard_m_);
    graveyard_.push_back(std::move(victim));
  }
  alerts_.reset_stream(stream);
  return true;
}

void Monitor::add_alert_rule(const AlertRule& rule) {
  std::lock_guard<std::mutex> lock(meta_m_);
  // Pre-validate so an add that AlertEngine would reject is never logged;
  // the thrown messages match AlertEngine::add_rule exactly.
  if (rule.name.empty()) {
    throw std::invalid_argument("AlertEngine::add_rule: rule name must be non-empty");
  }
  if (alerts_.has_rule(rule.name)) {
    throw std::invalid_argument("AlertEngine::add_rule: duplicate rule name '" +
                                rule.name + "'");
  }
  if (wal_) {
    std::string payload;
    core::TextWriter w(payload);
    w << (meta_seq_ + 1) << ' ';
    write_rule(w, rule);
    wal_->append(0, wal::Record{wal::RecordType::kAlertRule, std::move(payload)});
  }
  meta_seq_ += 1;
  alerts_.add_rule(rule);
}

void Monitor::refit_job(Entry& entry, const std::string& name, std::uint64_t ordinal) {
  try {
    data::PerformanceSeries series;
    std::optional<num::Vector> warm_start;
    {
      std::lock_guard<std::mutex> lock(entry.m);
      if (entry.removed) return;
      if (entry.state.event_ordinal() != ordinal) return;  // stale: event ended
      series = entry.state.event_series();
      if (entry.fit && entry.fit_event_ordinal == ordinal) {
        warm_start = entry.fit->parameters();
      }
    }
    core::FitOptions fit_options = options_.fit;
    fit_options.warm_start = warm_start;
    core::FitResult fit = core::fit_model(options_.model, series, /*holdout=*/0,
                                          fit_options);
    if (!fit.success()) throw std::runtime_error("fit did not converge");

    const double trough_t = core::predict_trough_time(fit);
    const double trough_v = fit.evaluate(trough_t);
    const std::optional<double> t_r = core::predict_recovery_time(
        fit, options_.stream.recovery_fraction, trough_t, options_.horizon_factor);

    double forecast_at = 0.0;
    StreamPhase phase = StreamPhase::kNominal;
    {
      std::lock_guard<std::mutex> lock(entry.m);
      if (entry.removed) return;
      if (entry.state.event_ordinal() != ordinal) return;  // stale: event ended
      // Log the RESULT, not the work: replay installs the serialized fit
      // verbatim instead of re-running the optimizer, so a recovered monitor
      // is byte-identical to the one that crashed.
      if (wal_) {
        std::string payload;
        core::TextWriter w(payload);
        w << entry.incarnation << ' ' << (entry.wal_seq + 1) << ' ' << ordinal << ' '
          << (warm_start ? 1 : 0) << ' ' << name << '\n';
        w << "predicted";
        write_optional(w, t_r);
        w << ' ' << trough_t << ' ' << trough_v << '\n';
        core::save_fit(payload, fit);
        wal_->append(shard_index_of(name),
                     wal::Record{wal::RecordType::kRefit, std::move(payload)});
      }
      entry.wal_seq += 1;
      entry.fit = std::move(fit);
      entry.fit_event_ordinal = ordinal;
      entry.predicted_recovery = t_r;
      entry.predicted_trough_time = trough_t;
      entry.predicted_trough_value = trough_v;
      entry.state.set_predicted_recovery(t_r);
      ++entry.refits;
      if (warm_start) ++entry.warm_refits;
      forecast_at = entry.state.last_time();
      phase = entry.state.phase();
    }
    if (t_r) alerts_.on_forecast(name, forecast_at, *t_r, phase);
  } catch (...) {
    std::lock_guard<std::mutex> lock(entry.m);
    if (entry.removed) return;
    if (wal_) {
      try {
        std::string payload;
        core::TextWriter(payload) << entry.incarnation << ' ' << (entry.wal_seq + 1) << ' '
                                  << name;
        wal_->append(shard_index_of(name),
                     wal::Record{wal::RecordType::kRefitFail, std::move(payload)});
      } catch (...) {
        // Logging the failure failed too; still count it so live counters
        // stay truthful. Recovery may then under-count failed refits.
      }
    }
    entry.wal_seq += 1;
    ++entry.failed_refits;
  }
}

void Monitor::drain() {
  if (options_.batched_refits) {
    // No background workers: run claim/execute passes until a pass finds
    // nothing (a refit can re-arm its own key via parked reschedules).
    while (refit_batch() > 0) {
    }
  }
  scheduler_.drain();
}

std::size_t Monitor::refit_batch(int threads) {
  auto batch = scheduler_.claim_ready();
  if (batch.empty()) return 0;
  if (threads <= 0) threads = static_cast<int>(options_.threads);
  // One parallel_for over the whole due set amortizes pool wakeups across
  // streams. Keys are distinct (the scheduler coalesces per stream), so jobs
  // never contend on an entry; each stream's refit pipeline is identical to
  // the threaded path, which is what keeps results bit-identical (§11).
  std::atomic<std::uint64_t> failures{0};
  par::parallel_for(
      batch.size(),
      [&batch, &failures](std::size_t i) {
        try {
          batch[i].job();
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      },
      threads);
  scheduler_.finish_claimed(batch, failures.load());
  return batch.size();
}

StreamSnapshot Monitor::fill_snapshot(Entry& entry) const {
  const StreamState& state = entry.state;
  StreamSnapshot snap;
  snap.name = state.name();
  snap.phase = state.phase();
  snap.samples_seen = state.samples_seen();
  snap.last_time = state.last_time();
  snap.last_value = state.last_value();
  snap.event_ordinal = state.event_ordinal();
  snap.event_active = state.event_active();
  snap.onset_time = state.onset_time();
  snap.trough_time = state.trough_time();
  snap.trough_value = state.trough_value();
  snap.refits = entry.refits;
  snap.warm_refits = entry.warm_refits;
  snap.failed_refits = entry.failed_refits;

  if (entry.fit && entry.fit_event_ordinal == state.event_ordinal()) {
    snap.has_fit = true;
    snap.model = options_.model;
    snap.parameters = entry.fit->parameters();
    snap.fit_sse = entry.fit->sse;
    snap.predicted_recovery_time = entry.predicted_recovery;
    snap.predicted_trough_time = entry.predicted_trough_time;
    snap.predicted_trough_value = entry.predicted_trough_value;

    // Eight interval metrics over the UNSEEN horizon [t_now, predicted t_r],
    // both in aligned (event) time.
    if (snap.event_active && snap.onset_time && entry.predicted_recovery) {
      const double t_now = state.last_time() - *snap.onset_time;
      const double t_r = *entry.predicted_recovery;
      if (t_r > t_now) {
        const double t_d = entry.predicted_trough_time.value_or(t_now);
        try {
          for (std::size_t i = 0; i < core::kAllMetrics.size(); ++i) {
            snap.horizon_metrics[i] = core::continuous_metric(
                entry.fit->model(), snap.parameters, core::kAllMetrics[i], t_now, t_r,
                t_d, t_r);
          }
          snap.has_horizon_metrics = true;
        } catch (const std::exception&) {
          snap.has_horizon_metrics = false;  // degenerate window; skip quietly
        }
      }
    }
  }
  return snap;
}

std::vector<std::pair<std::string, Monitor::Entry*>> Monitor::sorted_entries() const {
  std::vector<std::pair<std::string, Entry*>> all;
  for (const auto& shard : registry_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& [name, entry] : shard->streams) {
      all.emplace_back(name, entry.get());
    }
  }
  // Shards are visited in stripe order; re-sort so callers see the same
  // name-ordered view the single-map registry used to give them.
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return all;
}

std::vector<StreamSnapshot> Monitor::snapshot() const {
  const auto entries = sorted_entries();
  std::vector<StreamSnapshot> out;
  out.reserve(entries.size());
  for (const auto& [name, entry] : entries) {
    std::lock_guard<std::mutex> entry_lock(entry->m);
    out.push_back(fill_snapshot(*entry));
  }
  return out;
}

StreamSnapshot Monitor::snapshot(const std::string& stream) const {
  const RegistryShard& shard = shard_for(stream);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.streams.find(stream);
  if (it == shard.streams.end()) {
    throw std::out_of_range("Monitor::snapshot: unknown stream '" + stream + "'");
  }
  std::lock_guard<std::mutex> entry_lock(it->second->m);
  return fill_snapshot(*it->second);
}

std::vector<std::string> Monitor::stream_names() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : sorted_entries()) names.push_back(name);
  return names;
}

std::size_t Monitor::stream_count() const {
  std::size_t count = 0;
  for (const auto& shard : registry_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    count += shard->streams.size();
  }
  return count;
}

void Monitor::save(std::string& out) {
  drain();  // quiesce refits so no entry mutates mid-snapshot
  // Name-sorted traversal keeps the on-disk format byte-identical to the
  // pre-sharded single-map registry, at any shard count.
  const auto entries = sorted_entries();
  core::TextWriter w(out);
  w << "prm-live " << kFormatVersion << '\n';
  w << "model " << options_.model << '\n';
  {
    std::lock_guard<std::mutex> meta_lock(meta_m_);
    w << "meta " << meta_seq_ << ' ' << incarnation_counter_.load(std::memory_order_relaxed)
      << '\n';
    const auto rules = alerts_.rules();
    w << "alert_rules " << rules.size() << '\n';
    for (const AlertRule& rule : rules) {
      w << "rule ";
      write_rule(w, rule);
      w << '\n';
    }
  }
  w << "streams " << entries.size() << '\n';
  for (const auto& [name, entry] : entries) {
    std::lock_guard<std::mutex> entry_lock(entry->m);
    w << "stream " << name << '\n';
    entry->state.save(out);
    const bool has_fit = entry->fit.has_value();
    w << "fit " << (has_fit ? 1 : 0) << '\n';
    if (has_fit) core::save_fit(out, *entry->fit);
    w << "fit_event_ordinal " << entry->fit_event_ordinal << '\n';
    w << "counters " << entry->refits << ' ' << entry->warm_refits << ' '
      << entry->failed_refits << ' ' << entry->samples_at_last_refit << '\n';
    w << "wal " << entry->wal_seq << ' ' << entry->incarnation << '\n';
    w << "predicted";
    write_optional(w, entry->predicted_recovery);
    write_optional(w, entry->predicted_trough_time);
    write_optional(w, entry->predicted_trough_value);
    w << '\n';
  }
}

void Monitor::save(std::ostream& out) {
  std::string text;
  save(text);
  if (!(out << text)) throw std::runtime_error("Monitor::save: write failed");
}

void Monitor::save_file(const std::string& path) {
  // Temp file + fsync + atomic rename: a crash mid-save leaves the previous
  // snapshot intact, never a half-written one.
  std::string text;
  save(text);
  try {
    wal::atomic_write_file(path, text);
  } catch (const std::exception& e) {
    throw std::runtime_error("Monitor::save_file: " + std::string(e.what()));
  }
}

std::unique_ptr<Monitor> Monitor::load(std::istream& in, MonitorOptions options) {
  const std::string text = core::read_rest(in);
  core::TextReader reader(text, "Monitor::load");
  return load_impl(reader, std::move(options), /*attach_wal=*/true);
}

std::unique_ptr<Monitor> Monitor::load_impl(core::TextReader& in, MonitorOptions options,
                                            bool attach_wal) {
  in.expect("prm-live");
  const std::uint64_t version = in.count("format version");
  if (version != kFormatVersion) {
    in.fail("unknown snapshot version: found prm-live " + std::to_string(version) +
            ", this build reads prm-live " + std::to_string(kFormatVersion) +
            " (re-save the snapshot with a matching build)");
  }
  in.expect("model");
  options.model = in.token("model name");  // keep the warm-start path consistent on resume

  auto monitor = std::unique_ptr<Monitor>(new Monitor(std::move(options), DeferWalTag{}));

  in.expect("meta");
  monitor->meta_seq_ = in.count("meta");
  monitor->incarnation_counter_.store(in.count("meta"), std::memory_order_relaxed);
  in.expect("alert_rules");
  const std::uint64_t rule_count = in.count("alert_rules");
  for (std::uint64_t i = 0; i < rule_count; ++i) {
    in.expect("rule");
    monitor->alerts_.add_rule(read_rule(in));
  }

  in.expect("streams");
  const std::uint64_t count = in.count("streams");
  for (std::uint64_t i = 0; i < count; ++i) {
    in.expect("stream");
    const std::string name(in.token("stream name"));

    auto entry = std::make_unique<Entry>(StreamState::load(in, monitor->options_.stream));
    in.expect("fit");
    if (in.count("fit") != 0) entry->fit = core::load_fit(in);
    in.expect("fit_event_ordinal");
    entry->fit_event_ordinal = in.count("fit_event_ordinal");
    in.expect("counters");
    entry->refits = in.count("counters");
    entry->warm_refits = in.count("counters");
    entry->failed_refits = in.count("counters");
    entry->samples_at_last_refit = static_cast<std::size_t>(in.count("counters"));
    in.expect("wal");
    entry->wal_seq = in.count("wal");
    entry->incarnation = in.count("wal");
    in.expect("predicted");
    entry->predicted_recovery = read_optional(in, "predicted");
    entry->predicted_trough_time = read_optional(in, "predicted");
    entry->predicted_trough_value = read_optional(in, "predicted");

    if (entry->state.name() != name) {
      in.fail("stream record name mismatch: '" + name + "' vs '" + entry->state.name() +
              "'");
    }
    monitor->shard_for(name).streams.emplace(name, std::move(entry));
  }
  if (attach_wal && !monitor->options_.wal.dir.empty()) monitor->attach_wal();
  return monitor;
}

std::unique_ptr<Monitor> Monitor::load_file(const std::string& path,
                                            MonitorOptions options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Monitor::load_file: cannot open " + path);
  return load(in, std::move(options));
}

std::unique_ptr<Monitor> Monitor::recover(MonitorOptions options) {
  if (options.wal.dir.empty()) {
    throw std::invalid_argument("Monitor::recover: options.wal.dir must be set");
  }
  wal::ensure_dir(options.wal.dir);
  const std::string snapshot = wal::snapshot_path(options.wal.dir);
  wal::RecoveryStats stats;
  std::unique_ptr<Monitor> monitor;
  if (wal::file_exists(snapshot)) {
    const std::string text = wal::read_file(snapshot);
    core::TextReader reader(text, "Monitor::load");
    monitor = load_impl(reader, std::move(options), /*attach_wal=*/false);
    stats.snapshot_loaded = true;
  } else {
    monitor = std::unique_ptr<Monitor>(new Monitor(std::move(options), DeferWalTag{}));
  }
  {
    const auto records = wal::read_all_records(monitor->options_.wal.dir, stats);
    monitor->replay(records, stats);
  }
#ifdef __GLIBC__
  // The log's payloads and the replay plan were freed below the state that
  // replay built, so the heap cannot shrink from its top: hand the free
  // pages back, or the boot burst stays resident for the process's life.
  ::malloc_trim(0);
#endif
  monitor->recovery_stats_ = stats;
  // Only now open the log for writing: replay never appends, and the fresh
  // segments the Wal creates start after everything just replayed.
  monitor->wal_ = std::make_unique<wal::Wal>(monitor->options_.wal,
                                             monitor->registry_.size());
  // Re-queue the refit jobs that died with the crashed process -- after the
  // WAL is open, so their results are logged like any live refit.
  monitor->reschedule_pending_refits();
  monitor->start_maintenance();
  return monitor;
}

void Monitor::replay(const std::vector<wal::ReplayRecord>& records,
                     wal::RecoveryStats& stats) {
  // Nothing else runs during recovery: no scheduler jobs, no WAL, no other
  // threads -- so the registry is mutated without locks here.
  ReplayPlan plan;
  plan.ops.reserve(records.size());
  for (const wal::ReplayRecord& rr : records) parse_record(rr.record, plan);
  if (plan.ops.size() > std::numeric_limits<std::uint32_t>::max()) {
    replay_fail("too many records to replay");
  }

  // Replay order is defined by the keys INSIDE the records -- per stream by
  // (incarnation, seq), rules by meta_seq -- not by which segment file held
  // them. The per-entry gating below then skips anything the snapshot
  // already covers and trips loudly on a genuine gap. The ops stay put: a
  // uint32_t index is stable-sorted by (name, incarnation, rank), with each
  // name replaced by its rank among the distinct names so that names are
  // compared only to rank them.
  const std::vector<ReplayOp>& ops = plan.ops;
  std::vector<std::uint32_t> name_rank(plan.names.size());
  {
    std::vector<std::uint32_t> by_name(plan.names.size());
    std::iota(by_name.begin(), by_name.end(), 0u);
    std::sort(by_name.begin(), by_name.end(), [&plan](std::uint32_t a, std::uint32_t b) {
      return plan.names[a] < plan.names[b];
    });
    for (std::uint32_t r = 0; r < by_name.size(); ++r) name_rank[by_name[r]] = r;
  }
  std::vector<std::uint32_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::tuple(name_rank[ops[a].stream], ops[a].incarnation, ops[a].rank) <
           std::tuple(name_rank[ops[b].stream], ops[b].incarnation, ops[b].rank);
  });
  std::stable_sort(plan.rules.begin(), plan.rules.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (auto& [seq, rule] : plan.rules) {
    if (seq <= meta_seq_) {
      ++stats.skipped;
      continue;
    }
    if (seq != meta_seq_ + 1) {
      replay_fail("alert-rule sequence gap (wanted " +
                  std::to_string(meta_seq_ + 1) + ", found " + std::to_string(seq) +
                  ")");
    }
    alerts_.add_rule(std::move(rule));
    meta_seq_ = seq;
    ++stats.applied;
  }

  // A want-refit edge during replay means the crashed process scheduled a
  // job there; a later kRefit/kRefitFail record means that job (or a
  // coalesced successor) ran and was acknowledged. Edges with no logged
  // result are the refit queue that died with the process -- remember them
  // (last edge per stream, like scheduler coalescing) so recover() can
  // re-queue them once the WAL is reattached.
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    const std::uint32_t stream = ops[order[begin]].stream;
    end = begin + 1;
    while (end < order.size() && ops[order[end]].stream == stream) ++end;
    const std::string name(plan.names[stream]);
    RegistryShard& shard = shard_for(name);
    std::optional<std::uint64_t> pending;
    for (std::size_t k = begin; k < end; ++k) {
      const ReplayOp& op = ops[order[k]];
      auto it = shard.streams.find(name);
      Entry* entry = (it == shard.streams.end()) ? nullptr : it->second.get();

      if (op.type == wal::RecordType::kStreamCreate) {
        if (entry != nullptr) {
          if (entry->incarnation >= op.incarnation) {
            ++stats.skipped;
          } else {
            replay_fail("create for stream '" + name +
                        "' without a remove of its previous incarnation");
          }
          continue;
        }
        auto fresh = std::make_unique<Entry>(name, options_.stream);
        fresh->incarnation = op.incarnation;
        shard.streams.emplace(name, std::move(fresh));
        if (op.incarnation > incarnation_counter_.load(std::memory_order_relaxed)) {
          incarnation_counter_.store(op.incarnation, std::memory_order_relaxed);
        }
        ++stats.applied;
        continue;
      }

      if (op.type == wal::RecordType::kStreamRemove) {
        if (entry == nullptr || entry->incarnation > op.incarnation) {
          ++stats.skipped;  // snapshot already reflects the remove (and beyond)
        } else {
          shard.streams.erase(it);
          pending.reset();
          ++stats.applied;
        }
        continue;
      }

      // Ingest / refit / refit-fail: gate on (incarnation, seq).
      if (entry == nullptr || entry->incarnation > op.incarnation) {
        ++stats.skipped;  // its remove was compacted into the snapshot
        continue;
      }
      if (entry->incarnation < op.incarnation) {
        replay_fail("record for stream '" + name + "' incarnation " +
                    std::to_string(op.incarnation) + " without its create");
      }
      if (op.rank <= entry->wal_seq) {
        ++stats.skipped;  // already folded into the snapshot
        continue;
      }
      if (op.rank != entry->wal_seq + 1) {
        replay_fail("sequence gap on stream '" + name + "' (wanted " +
                    std::to_string(entry->wal_seq + 1) + ", found " +
                    std::to_string(op.rank) + ")");
      }
      switch (op.type) {
        case wal::RecordType::kIngest:
        case wal::RecordType::kIngestBatch:
          // A batch is one sequencing step covering every sample; the CRC
          // frame makes it atomic on disk, so it is fully here or fully torn.
          for (std::size_t i = op.first; i < op.first + op.count; ++i) {
            const auto [t, value] = plan.samples[i];
            const IngestEffects fx = apply_ingest_locked(*entry, t, value);
            if (fx.want_refit) pending = fx.ordinal;
          }
          break;
        case wal::RecordType::kRefit: {
          RefitOp& refit = plan.refits[op.first];
          pending.reset();
          entry->fit = std::move(refit.fit);
          entry->fit_event_ordinal = refit.ordinal;
          entry->predicted_recovery = refit.predicted_recovery;
          entry->predicted_trough_time = refit.predicted_trough_time;
          entry->predicted_trough_value = refit.predicted_trough_value;
          entry->state.set_predicted_recovery(refit.predicted_recovery);
          ++entry->refits;
          if (refit.warm) ++entry->warm_refits;
          break;
        }
        case wal::RecordType::kRefitFail:
          pending.reset();
          ++entry->failed_refits;
          break;
        default:
          replay_fail("unexpected record type in stream replay");
      }
      entry->wal_seq = op.rank;
      ++stats.applied;
    }
    if (pending) pending_refits_.emplace_back(name, *pending);
  }
}

void Monitor::reschedule_pending_refits() {
  for (const auto& item : pending_refits_) {
    const std::string& stream = item.first;
    const std::uint64_t ordinal = item.second;
    RegistryShard& shard = shard_for(stream);
    Entry* entry_ptr = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      auto it = shard.streams.find(stream);
      if (it == shard.streams.end()) continue;
      entry_ptr = it->second.get();
    }
    // Same job shape as live ingest: snapshots the event at execution time,
    // bails if the event ordinal moved on (exactly what the crashed queue's
    // job would have done).
    scheduler_.schedule(stream, [this, entry_ptr, stream, ordinal] {
      refit_job(*entry_ptr, stream, ordinal);
    });
  }
  pending_refits_.clear();
}

void Monitor::checkpoint() {
  if (!wal_) return;
  std::lock_guard<std::mutex> lock(checkpoint_m_);
  // Seal first, snapshot second: every record in a sealed segment was
  // appended -- and therefore applied, the two are one critical section --
  // before rotate_all returned, so the snapshot written next covers all of
  // them. Records landing in the fresh segments meanwhile merely overlap the
  // snapshot, which replay's sequence gating already handles.
  const std::vector<std::uint64_t> watermarks = wal_->rotate_all();
  std::string snapshot;
  save(snapshot);
  wal::atomic_write_file(wal::snapshot_path(options_.wal.dir), snapshot);
  wal_->remove_segments_below(watermarks);
}

void Monitor::shutdown() {
  if (shutdown_done_.exchange(true)) return;
  stop_maintenance();
  drain();
  if (wal_) {
    checkpoint();
    wal_->sync_all();
  }
}

}  // namespace prm::live
