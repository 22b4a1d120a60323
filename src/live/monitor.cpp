#include "live/monitor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
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

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("Monitor::load: " + what);
}

[[noreturn]] void replay_fail(const std::string& what) {
  throw std::runtime_error("Monitor::recover: " + what);
}

void expect_key(std::istream& in, const std::string& key) {
  std::string k;
  if (!(in >> k)) fail("unexpected end of input, wanted '" + key + "'");
  if (k != key) fail("expected '" + key + "', found '" + k + "'");
}

double read_double(std::istream& in, const std::string& key) {
  // Token + strtod instead of operator>>: fitted predictions can be
  // legitimately non-finite (a diverging trough forecast), and the stream
  // extractor rejects the "inf"/"nan" the writer printed for them.
  std::string tok;
  if (!(in >> tok)) fail("bad value for '" + key + "'");
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) fail("bad value for '" + key + "'");
  return v;
}

std::uint64_t read_u64(std::istream& in, const std::string& key) {
  std::uint64_t v = 0;
  if (!(in >> v)) fail("bad count for '" + key + "'");
  return v;
}

void write_optional(std::ostream& out, const std::optional<double>& v) {
  out << ' ' << (v ? 1 : 0) << ' ' << (v ? *v : 0.0);
}

std::optional<double> read_optional(std::istream& in, const std::string& key) {
  const std::uint64_t has = read_u64(in, key);
  const double v = read_double(in, key);
  return has ? std::optional<double>(v) : std::nullopt;
}

/// Alert-rule line: "<kind> <threshold> <has_phase> <phase> <once> <name>".
/// The name goes LAST and is read to end of line, so rule names may contain
/// spaces. Shared by the snapshot format and the kAlertRule WAL payload.
void write_rule(std::ostream& out, const AlertRule& rule) {
  out << to_string(rule.kind) << ' ' << rule.threshold << ' '
      << (rule.phase ? 1 : 0) << ' '
      << to_string(rule.phase ? *rule.phase : StreamPhase::kNominal) << ' '
      << (rule.once_per_event ? 1 : 0) << ' ' << rule.name;
}

AlertRule read_rule(std::istream& in) {
  AlertRule rule;
  std::string kind;
  std::string phase;
  if (!(in >> kind)) fail("truncated alert rule");
  rule.kind = alert_kind_from_string(kind);
  rule.threshold = read_double(in, "rule");
  const bool has_phase = read_u64(in, "rule") != 0;
  if (!(in >> phase)) fail("truncated alert rule");
  if (has_phase) rule.phase = phase_from_string(phase);
  rule.once_per_event = read_u64(in, "rule") != 0;
  in >> std::ws;
  std::getline(in, rule.name);
  if (rule.name.empty()) fail("alert rule with empty name");
  return rule;
}

/// One WAL record, parsed into replay form. Mutations of a stream sort by
/// (name, incarnation, rank): the create of an incarnation first (rank 0),
/// its ingest/refit ops by their per-stream sequence number, its remove last.
/// That keying -- not the segment file a record sat in -- defines replay
/// order, which keeps recovery correct even across a shard-count change.
struct ReplayOp {
  enum Kind { kCreate = 0, kMutation = 1, kRemove = 2 };
  Kind kind = kMutation;
  wal::RecordType type = wal::RecordType::kIngest;
  std::string name;
  std::uint64_t incarnation = 0;
  std::uint64_t rank = 0;
  std::uint64_t seq = 0;
  double t = 0.0;
  double value = 0.0;
  std::vector<std::pair<double, double>> samples;  ///< kIngestBatch only.
  std::uint64_t ordinal = 0;
  bool warm = false;
  std::optional<double> predicted_recovery;
  double predicted_trough_time = 0.0;
  double predicted_trough_value = 0.0;
  std::optional<core::FitResult> fit;
};

ReplayOp parse_op(const wal::Record& record) {
  ReplayOp op;
  op.type = record.type;
  std::istringstream in(record.payload);
  switch (record.type) {
    case wal::RecordType::kStreamCreate:
      op.kind = ReplayOp::kCreate;
      op.incarnation = read_u64(in, "create");
      if (!(in >> op.name)) fail("create record without a stream name");
      op.rank = 0;
      break;
    case wal::RecordType::kStreamRemove:
      op.kind = ReplayOp::kRemove;
      op.incarnation = read_u64(in, "remove");
      if (!(in >> op.name)) fail("remove record without a stream name");
      op.rank = std::numeric_limits<std::uint64_t>::max();
      break;
    case wal::RecordType::kIngest:
      op.incarnation = read_u64(in, "ingest");
      op.seq = read_u64(in, "ingest");
      if (!(in >> op.name)) fail("ingest record without a stream name");
      op.t = read_double(in, "ingest");
      op.value = read_double(in, "ingest");
      op.rank = op.seq;
      break;
    case wal::RecordType::kIngestBatch: {
      op.incarnation = read_u64(in, "ingest-batch");
      op.seq = read_u64(in, "ingest-batch");
      if (!(in >> op.name)) fail("ingest-batch record without a stream name");
      const std::uint64_t n = read_u64(in, "ingest-batch");
      if (n == 0) fail("empty ingest-batch record");
      op.samples.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        const double t = read_double(in, "ingest-batch");
        const double value = read_double(in, "ingest-batch");
        op.samples.emplace_back(t, value);
      }
      op.rank = op.seq;
      break;
    }
    case wal::RecordType::kRefitFail:
      op.incarnation = read_u64(in, "refit-fail");
      op.seq = read_u64(in, "refit-fail");
      if (!(in >> op.name)) fail("refit-fail record without a stream name");
      op.rank = op.seq;
      break;
    case wal::RecordType::kRefit:
      op.incarnation = read_u64(in, "refit");
      op.seq = read_u64(in, "refit");
      op.ordinal = read_u64(in, "refit");
      op.warm = read_u64(in, "refit") != 0;
      if (!(in >> op.name)) fail("refit record without a stream name");
      expect_key(in, "predicted");
      op.predicted_recovery = read_optional(in, "predicted");
      op.predicted_trough_time = read_double(in, "predicted");
      op.predicted_trough_value = read_double(in, "predicted");
      op.fit = core::load_fit(in);
      op.rank = op.seq;
      break;
    case wal::RecordType::kAlertRule:
      fail("alert-rule record routed into the stream replayer");
  }
  return op;
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
      std::ostringstream payload;
      payload << entry->incarnation << ' ' << name;
      wal_->append(shard_index_of(name),
                   wal::Record{wal::RecordType::kStreamCreate, payload.str()});
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
      std::ostringstream payload;
      payload << std::setprecision(17) << entry.incarnation << ' '
              << (entry.wal_seq + 1) << ' ' << stream << ' ' << t << ' ' << value;
      wal_->append(shard_index_of(stream),
                   wal::Record{wal::RecordType::kIngest, payload.str()});
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
      std::ostringstream payload;
      payload << std::setprecision(17) << entry.incarnation << ' '
              << (entry.wal_seq + 1) << ' ' << stream << ' ' << samples.size();
      for (const auto& [t, value] : samples) payload << ' ' << t << ' ' << value;
      wal_->append(shard_index_of(stream),
                   wal::Record{wal::RecordType::kIngestBatch, payload.str()});
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
        std::ostringstream payload;
        payload << entry.incarnation << ' ' << stream;
        wal_->append(shard_index_of(stream),
                     wal::Record{wal::RecordType::kStreamRemove, payload.str()});
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
    std::ostringstream payload;
    payload << std::setprecision(17) << (meta_seq_ + 1) << ' ';
    write_rule(payload, rule);
    wal_->append(0, wal::Record{wal::RecordType::kAlertRule, payload.str()});
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
        std::ostringstream payload;
        payload << std::setprecision(17) << entry.incarnation << ' '
                << (entry.wal_seq + 1) << ' ' << ordinal << ' '
                << (warm_start ? 1 : 0) << ' ' << name << '\n';
        payload << "predicted";
        write_optional(payload, t_r);
        payload << ' ' << trough_t << ' ' << trough_v << '\n';
        core::save_fit(payload, fit);
        wal_->append(shard_index_of(name),
                     wal::Record{wal::RecordType::kRefit, payload.str()});
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
        std::ostringstream payload;
        payload << entry.incarnation << ' ' << (entry.wal_seq + 1) << ' ' << name;
        wal_->append(shard_index_of(name),
                     wal::Record{wal::RecordType::kRefitFail, payload.str()});
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

void Monitor::save(std::ostream& out) {
  drain();  // quiesce refits so no entry mutates mid-snapshot
  // Name-sorted traversal keeps the on-disk format byte-identical to the
  // pre-sharded single-map registry, at any shard count.
  const auto entries = sorted_entries();
  out << "prm-live " << kFormatVersion << '\n';
  out << std::setprecision(17);
  out << "model " << options_.model << '\n';
  {
    std::lock_guard<std::mutex> meta_lock(meta_m_);
    out << "meta " << meta_seq_ << ' '
        << incarnation_counter_.load(std::memory_order_relaxed) << '\n';
    const auto rules = alerts_.rules();
    out << "alert_rules " << rules.size() << '\n';
    for (const AlertRule& rule : rules) {
      out << "rule ";
      write_rule(out, rule);
      out << '\n';
    }
  }
  out << "streams " << entries.size() << '\n';
  for (const auto& [name, entry] : entries) {
    std::lock_guard<std::mutex> entry_lock(entry->m);
    out << "stream " << name << '\n';
    entry->state.save(out);
    const bool has_fit = entry->fit.has_value();
    out << "fit " << (has_fit ? 1 : 0) << '\n';
    if (has_fit) core::save_fit(out, *entry->fit);
    out << "fit_event_ordinal " << entry->fit_event_ordinal << '\n';
    out << "counters " << entry->refits << ' ' << entry->warm_refits << ' '
        << entry->failed_refits << ' ' << entry->samples_at_last_refit << '\n';
    out << "wal " << entry->wal_seq << ' ' << entry->incarnation << '\n';
    out << "predicted";
    write_optional(out, entry->predicted_recovery);
    write_optional(out, entry->predicted_trough_time);
    write_optional(out, entry->predicted_trough_value);
    out << '\n';
  }
  if (!out) throw std::runtime_error("Monitor::save: write failed");
}

void Monitor::save_file(const std::string& path) {
  // Temp file + fsync + atomic rename: a crash mid-save leaves the previous
  // snapshot intact, never a half-written one.
  std::ostringstream out;
  save(out);
  try {
    wal::atomic_write_file(path, out.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("Monitor::save_file: " + std::string(e.what()));
  }
}

std::unique_ptr<Monitor> Monitor::load(std::istream& in, MonitorOptions options) {
  return load_impl(in, std::move(options), /*attach_wal=*/true);
}

std::unique_ptr<Monitor> Monitor::load_impl(std::istream& in, MonitorOptions options,
                                            bool attach_wal) {
  expect_key(in, "prm-live");
  int version = 0;
  if (!(in >> version)) fail("missing format version");
  if (version != kFormatVersion) {
    fail("unknown snapshot version: found prm-live " + std::to_string(version) +
         ", this build reads prm-live " + std::to_string(kFormatVersion) +
         " (re-save the snapshot with a matching build)");
  }
  expect_key(in, "model");
  std::string model_name;
  if (!(in >> model_name)) fail("missing model name");
  options.model = model_name;  // keep the warm-start path consistent on resume

  auto monitor = std::unique_ptr<Monitor>(new Monitor(std::move(options), DeferWalTag{}));

  expect_key(in, "meta");
  monitor->meta_seq_ = read_u64(in, "meta");
  monitor->incarnation_counter_.store(read_u64(in, "meta"),
                                      std::memory_order_relaxed);
  expect_key(in, "alert_rules");
  const std::uint64_t rule_count = read_u64(in, "alert_rules");
  for (std::uint64_t i = 0; i < rule_count; ++i) {
    expect_key(in, "rule");
    monitor->alerts_.add_rule(read_rule(in));
  }

  expect_key(in, "streams");
  const std::uint64_t count = read_u64(in, "streams");
  for (std::uint64_t i = 0; i < count; ++i) {
    expect_key(in, "stream");
    std::string name;
    if (!(in >> name)) fail("missing stream name");

    auto entry = std::make_unique<Entry>(
        StreamState::load(in, monitor->options_.stream));
    expect_key(in, "fit");
    if (read_u64(in, "fit") != 0) entry->fit = core::load_fit(in);
    expect_key(in, "fit_event_ordinal");
    entry->fit_event_ordinal = read_u64(in, "fit_event_ordinal");
    expect_key(in, "counters");
    entry->refits = read_u64(in, "counters");
    entry->warm_refits = read_u64(in, "counters");
    entry->failed_refits = read_u64(in, "counters");
    entry->samples_at_last_refit =
        static_cast<std::size_t>(read_u64(in, "counters"));
    expect_key(in, "wal");
    entry->wal_seq = read_u64(in, "wal");
    entry->incarnation = read_u64(in, "wal");
    expect_key(in, "predicted");
    entry->predicted_recovery = read_optional(in, "predicted");
    entry->predicted_trough_time = read_optional(in, "predicted");
    entry->predicted_trough_value = read_optional(in, "predicted");

    if (entry->state.name() != name) {
      fail("stream record name mismatch: '" + name + "' vs '" + entry->state.name() +
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
    std::ifstream in(snapshot);
    if (!in) throw std::runtime_error("Monitor::recover: cannot open " + snapshot);
    monitor = load_impl(in, std::move(options), /*attach_wal=*/false);
    stats.snapshot_loaded = true;
  } else {
    monitor = std::unique_ptr<Monitor>(new Monitor(std::move(options), DeferWalTag{}));
  }
  auto records = wal::read_all_records(monitor->options_.wal.dir, stats);
  monitor->replay(std::move(records), stats);
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

void Monitor::replay(std::vector<wal::ReplayRecord> records,
                     wal::RecoveryStats& stats) {
  // Nothing else runs during recovery: no scheduler jobs, no WAL, no other
  // threads -- so the registry is mutated without locks here.
  std::vector<ReplayOp> ops;
  ops.reserve(records.size());
  std::vector<std::pair<std::uint64_t, AlertRule>> rules;
  for (const wal::ReplayRecord& rr : records) {
    if (rr.record.type == wal::RecordType::kAlertRule) {
      std::istringstream in(rr.record.payload);
      const std::uint64_t seq = read_u64(in, "alert-rule");
      rules.emplace_back(seq, read_rule(in));
    } else {
      ops.push_back(parse_op(rr.record));
    }
  }

  // Replay order is defined by the keys INSIDE the records -- per stream by
  // (incarnation, seq), rules by meta_seq -- not by which segment file held
  // them. The per-entry gating below then skips anything the snapshot
  // already covers and trips loudly on a genuine gap.
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ReplayOp& a, const ReplayOp& b) {
                     if (a.name != b.name) return a.name < b.name;
                     if (a.incarnation != b.incarnation) {
                       return a.incarnation < b.incarnation;
                     }
                     return a.rank < b.rank;
                   });
  std::stable_sort(rules.begin(), rules.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  for (auto& [seq, rule] : rules) {
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
  std::map<std::string, std::uint64_t> pending;

  for (ReplayOp& op : ops) {
    RegistryShard& shard = shard_for(op.name);
    auto it = shard.streams.find(op.name);
    Entry* entry = (it == shard.streams.end()) ? nullptr : it->second.get();

    if (op.kind == ReplayOp::kCreate) {
      if (entry != nullptr) {
        if (entry->incarnation >= op.incarnation) {
          ++stats.skipped;
        } else {
          replay_fail("create for stream '" + op.name +
                      "' without a remove of its previous incarnation");
        }
        continue;
      }
      auto fresh = std::make_unique<Entry>(op.name, options_.stream);
      fresh->incarnation = op.incarnation;
      shard.streams.emplace(op.name, std::move(fresh));
      if (op.incarnation > incarnation_counter_.load(std::memory_order_relaxed)) {
        incarnation_counter_.store(op.incarnation, std::memory_order_relaxed);
      }
      ++stats.applied;
      continue;
    }

    if (op.kind == ReplayOp::kRemove) {
      if (entry == nullptr || entry->incarnation > op.incarnation) {
        ++stats.skipped;  // snapshot already reflects the remove (and beyond)
      } else {
        shard.streams.erase(it);
        pending.erase(op.name);
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
      replay_fail("record for stream '" + op.name + "' incarnation " +
                  std::to_string(op.incarnation) + " without its create");
    }
    if (op.seq <= entry->wal_seq) {
      ++stats.skipped;  // already folded into the snapshot
      continue;
    }
    if (op.seq != entry->wal_seq + 1) {
      replay_fail("sequence gap on stream '" + op.name + "' (wanted " +
                  std::to_string(entry->wal_seq + 1) + ", found " +
                  std::to_string(op.seq) + ")");
    }
    switch (op.type) {
      case wal::RecordType::kIngest: {
        const IngestEffects fx = apply_ingest_locked(*entry, op.t, op.value);
        if (fx.want_refit) pending[op.name] = fx.ordinal;
        break;
      }
      case wal::RecordType::kIngestBatch:
        // One sequencing step covering every sample; the CRC frame makes the
        // batch atomic on disk, so it is either fully here or fully torn.
        for (const auto& [t, value] : op.samples) {
          const IngestEffects fx = apply_ingest_locked(*entry, t, value);
          if (fx.want_refit) pending[op.name] = fx.ordinal;
        }
        break;
      case wal::RecordType::kRefit:
        pending.erase(op.name);
        entry->fit = std::move(*op.fit);
        entry->fit_event_ordinal = op.ordinal;
        entry->predicted_recovery = op.predicted_recovery;
        entry->predicted_trough_time = op.predicted_trough_time;
        entry->predicted_trough_value = op.predicted_trough_value;
        entry->state.set_predicted_recovery(op.predicted_recovery);
        ++entry->refits;
        if (op.warm) ++entry->warm_refits;
        break;
      case wal::RecordType::kRefitFail:
        pending.erase(op.name);
        ++entry->failed_refits;
        break;
      default:
        replay_fail("unexpected record type in stream replay");
    }
    entry->wal_seq = op.seq;
    ++stats.applied;
  }

  pending_refits_.assign(pending.begin(), pending.end());
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
  std::ostringstream snapshot;
  save(snapshot);
  wal::atomic_write_file(wal::snapshot_path(options_.wal.dir), snapshot.str());
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
