// live::Monitor -- the public facade of the online resilience engine.
//
// Ingests timestamped performance samples for many named streams
// concurrently, walks each stream through the StreamState machine, and keeps
// a continuously refit resilience model per active disruption event:
//
//   ingest(stream, t, value)   feed one sample        (thread-safe, O(1)-ish)
//   snapshot()                 per-stream state, latest fit, predicted t_r,
//                              and the eight interval metrics over the
//                              unseen horizon [t_now, t_r]
//   alerts()                   threshold / transition / forecast alert rules
//   save() / load()            snapshot persistence so a monitor survives
//                              restart (fits stored via core/serialize)
//
// Refits run on a RefitScheduler worker pool: the first fit of an event is a
// cold full multistart; every subsequent refit warm-starts from the stream's
// previous parameter vector (FitOptions::warm_start), which is what makes
// per-sample refitting affordable. A fit's predicted recovery time is fed
// back into the stream's state machine, where it gates the RESTORED
// transition.
//
// Threading model (see DESIGN.md §7 for the full table):
//  * ingest/snapshot/stream_names/drain/counters: thread-safe, may be called
//    from any number of threads.
//  * Per-stream work is serialized by a per-stream mutex; distinct streams
//    never contend.
//  * Alert callbacks fire on the calling thread (ingest) or on a refit
//    worker (forecast alerts) -- they must be thread-safe.
//  * save() drains in-flight refits, then snapshots under the locks; load()
//    returns a brand-new monitor before any thread can touch it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fitting.hpp"
#include "core/metrics.hpp"
#include "core/text_codec.hpp"
#include "live/alerts.hpp"
#include "live/refit_scheduler.hpp"
#include "live/stream_state.hpp"
#include "wal/log.hpp"
#include "wal/recovery.hpp"

namespace prm::live {

struct MonitorOptions {
  /// Per-stream state machine knobs (ring capacity, CUSUM, thresholds).
  StreamConfig stream;

  /// Registry name of the model refit per event. Validated at construction.
  std::string model = "competing-risks";

  /// Schedule a refit every this many new event samples.
  std::size_t refit_every = 4;

  /// Do not fit before this many event samples (raised internally to the
  /// model's parameter count + 2 when smaller).
  std::size_t min_fit_samples = 8;

  /// Refit worker pool size.
  std::size_t threads = 2;

  /// Stream-registry shard count; 0 = one shard per prm::par pool thread.
  /// Ingest on streams in different shards never touches a shared lock.
  std::size_t shards = 0;

  /// When true, refits are NOT run by background scheduler workers: they
  /// accumulate (still one coalesced job per stream) until refit_batch()
  /// drains every due stream in one prm::par parallel pass. Amortizes pool
  /// wakeups across streams; results are bit-identical to the threaded path
  /// because each stream's refit pipeline is unchanged (see DESIGN.md §11).
  bool batched_refits = false;

  /// Search horizon for the recovery-time prediction, as a multiple of the
  /// observed event span (see core::predict_recovery_time).
  double horizon_factor = 4.0;

  /// Write-ahead-log knobs. wal.dir empty (the default) disables the WAL
  /// entirely; set it to make every acknowledged mutation durable. A fresh
  /// directory can be opened by the constructor; a directory with existing
  /// state must go through Monitor::recover (the constructor refuses it, so
  /// a mis-wired boot cannot silently fork history).
  wal::WalOptions wal;

  /// Fit options for the cold (first) fit of an event; warm refits reuse
  /// these plus FitOptions::warm_start.
  core::FitOptions fit;
};

/// One stream's state as returned by snapshot(). Times labelled "aligned"
/// are measured from the event's pre-hazard peak (t = 0), in the same units
/// the samples use; values are normalized to the peak value.
struct StreamSnapshot {
  std::string name;
  StreamPhase phase = StreamPhase::kNominal;
  std::uint64_t samples_seen = 0;
  double last_time = 0.0;
  double last_value = 0.0;
  std::uint64_t event_ordinal = 0;  ///< 0 = never disrupted.
  bool event_active = false;
  std::optional<double> onset_time;     ///< Absolute time of the pre-hazard peak.
  std::optional<double> trough_time;    ///< Observed, aligned.
  std::optional<double> trough_value;   ///< Observed, aligned.

  bool has_fit = false;  ///< The fields below are meaningful only when true.
  std::string model;
  num::Vector parameters;
  double fit_sse = 0.0;
  std::optional<double> predicted_recovery_time;  ///< Aligned.
  std::optional<double> predicted_trough_time;    ///< Aligned.
  std::optional<double> predicted_trough_value;

  /// The eight interval metrics (core::kAllMetrics order) computed on the
  /// fitted curve over the UNSEEN horizon [t_now, predicted t_r].
  bool has_horizon_metrics = false;
  std::array<double, 8> horizon_metrics{};

  std::uint64_t refits = 0;
  std::uint64_t warm_refits = 0;
  std::uint64_t failed_refits = 0;
};

class Monitor {
 public:
  /// Throws std::out_of_range when options.model is not registered and
  /// std::invalid_argument on out-of-range knobs.
  explicit Monitor(MonitorOptions options = {});
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Feed one sample, creating the stream on first sight. Returns the state
  /// transitions this sample fired (delivered to alert subscribers too).
  /// Thread-safe; samples of one stream must arrive in time order (throws
  /// std::invalid_argument otherwise, as does a whitespace stream name).
  std::vector<TransitionEvent> ingest(const std::string& stream, double t, double value);

  /// Feed many samples of one stream in one step: the shard lock is taken
  /// once and, with the WAL on, the whole batch is logged as ONE group-committed
  /// record (one fsync gate instead of one per sample). The batch is atomic:
  /// it is validated up front and either fully applied + fully durable or --
  /// on a crash mid-write -- fully torn at recovery. Returns the concatenated
  /// transitions in sample order; alert callbacks fire per sample exactly as
  /// a loop of ingest() calls would. Throws std::invalid_argument (same
  /// messages as ingest) with the monitor unchanged when any sample is
  /// non-finite or out of order, within the batch or against the stream.
  std::vector<TransitionEvent> ingest_batch(
      const std::string& stream,
      const std::vector<std::pair<double, double>>& samples);

  /// Forget a stream entirely (state, fit, counters). Returns false when the
  /// stream does not exist. Durable when the WAL is on: a remove survives
  /// restart even if the snapshot still contains the stream. The stream can
  /// be re-created by a later ingest (it restarts from scratch).
  bool remove_stream(const std::string& stream);

  /// WAL-aware alert-rule registration: validates, logs, then applies via
  /// alerts().add_rule. Always use this instead of alerts().add_rule when
  /// rules must survive restart; throws std::invalid_argument exactly as
  /// AlertEngine::add_rule does.
  void add_alert_rule(const AlertRule& rule);

  /// Block until every scheduled refit has completed. In batched mode this
  /// runs refit_batch() passes until no work remains.
  void drain();

  /// Batched mode: claim every due refit from the scheduler and fan the
  /// batch out through one prm::par parallel_for (threads <= 0 uses
  /// options().threads). Returns the number of refits run. A no-op returning
  /// 0 in threaded mode (workers already ran everything).
  std::size_t refit_batch(int threads = 0);

  /// All streams, sorted by name. Live read: refits may still be in flight;
  /// call drain() first for a quiescent view.
  std::vector<StreamSnapshot> snapshot() const;

  /// One stream; throws std::out_of_range for unknown names.
  StreamSnapshot snapshot(const std::string& stream) const;

  std::vector<std::string> stream_names() const;
  std::size_t stream_count() const;

  AlertEngine& alerts() noexcept { return alerts_; }
  const MonitorOptions& options() const noexcept { return options_; }

  // Engine-wide counters (sums over streams; scheduler totals).
  std::uint64_t refits_executed() const { return scheduler_.executed(); }
  std::uint64_t refits_coalesced() const { return scheduler_.coalesced(); }
  std::uint64_t refits_failed() const { return scheduler_.failed(); }

  /// Registry shard count actually in use (after the 0 = auto resolution).
  std::size_t registry_shards() const noexcept { return registry_.size(); }

  /// Persist the full monitor state (drains refits first so the snapshot is
  /// quiescent; the string overload appends). Restore with load(); alert
  /// subscribers and options are NOT serialized -- the caller re-supplies
  /// them.
  void save(std::string& out);
  void save(std::ostream& out);
  void save_file(const std::string& path);

  /// Rebuild a monitor from a save() snapshot. `options` must use the same
  /// stream config the snapshot was produced with; the model name stored in
  /// the snapshot overrides options.model. Throws std::runtime_error on
  /// malformed input.
  static std::unique_ptr<Monitor> load(std::istream& in, MonitorOptions options = {});
  static std::unique_ptr<Monitor> load_file(const std::string& path,
                                            MonitorOptions options = {});

  /// Rebuild a monitor from a WAL directory: load the compacted snapshot if
  /// one exists, then replay the log tail on top (tolerating a torn final
  /// record in each segment, the signature a crash leaves). The result is
  /// exactly the acknowledged pre-crash state. options.wal.dir must be set;
  /// an empty directory recovers to an empty monitor, so recover() is the
  /// universal boot path for WAL-enabled deployments.
  static std::unique_ptr<Monitor> recover(MonitorOptions options);

  /// Fold the log into the snapshot: drain refits, seal every shard's
  /// active segment, write the snapshot atomically to the WAL directory,
  /// then delete the sealed segments it covers. No-op when the WAL is off.
  /// Also run periodically by the maintenance thread once the log passes
  /// wal.compact_bytes.
  void checkpoint();

  /// Clean shutdown: stop the maintenance thread, drain refits, checkpoint,
  /// and fsync the WAL. Idempotent; called by the CLI signal handlers.
  void shutdown();

  /// Cluster-mode registry guard: when set, an ingest that would CREATE a
  /// stream the predicate rejects throws std::domain_error instead, so a
  /// mis-routed write cannot plant a stray stream on a non-owning node.
  /// Streams that already exist (e.g. recovered ones whose ownership moved
  /// after a membership change) stay readable and removable. Install during
  /// startup -- after recover(), before traffic; not synchronized against
  /// concurrent ingest.
  void set_ownership_filter(std::function<bool(const std::string&)> owned) {
    owned_ = std::move(owned);
  }

  bool wal_enabled() const noexcept { return wal_ != nullptr; }
  wal::WalStats wal_stats() const { return wal_ ? wal_->stats() : wal::WalStats{}; }
  std::uint64_t wal_disk_bytes() const { return wal_ ? wal_->disk_bytes() : 0; }

  /// What the last recover() found (zeroes for a constructor-made monitor).
  const wal::RecoveryStats& recovery_stats() const noexcept { return recovery_stats_; }

 private:
  struct DeferWalTag {};  ///< Internal: construct without opening the WAL.
  Monitor(MonitorOptions options, DeferWalTag);
  struct Entry {
    Entry(std::string stream_name, const StreamConfig& config)
        : state(std::move(stream_name), config) {}
    explicit Entry(StreamState loaded) : state(std::move(loaded)) {}

    std::mutex m;
    StreamState state;
    std::optional<core::FitResult> fit;
    std::uint64_t fit_event_ordinal = 0;  ///< Event the fit belongs to.
    std::optional<double> predicted_recovery;
    std::optional<double> predicted_trough_time;
    std::optional<double> predicted_trough_value;
    std::uint64_t refits = 0;
    std::uint64_t warm_refits = 0;
    std::uint64_t failed_refits = 0;
    std::size_t samples_at_last_refit = 0;

    /// Per-stream mutation sequence: incremented (under m, WAL on or off)
    /// for every logged mutation, so replay can skip records the snapshot
    /// already covers and detect gaps. Serialized in the snapshot.
    std::uint64_t wal_seq = 0;

    /// Which lifetime of this stream name the entry belongs to. Remove +
    /// re-create yields a higher incarnation, which is how replay tells
    /// records of the old stream from records of the new one.
    std::uint64_t incarnation = 0;

    /// Set (under m) when remove_stream evicts the entry; in-flight refit
    /// jobs still holding a pointer check it and bail out.
    bool removed = false;
  };

  /// One registry stripe: streams whose name hashes here share this lock and
  /// map, and nothing else. Entries are never erased, so a raw Entry* stays
  /// valid for the monitor's lifetime once created.
  struct RegistryShard {
    mutable std::shared_mutex mutex;
    std::map<std::string, std::unique_ptr<Entry>> streams;
  };

  /// What one applied sample did, for the caller to act on outside entry.m.
  struct IngestEffects {
    std::vector<TransitionEvent> transitions;
    StreamPhase phase_after = StreamPhase::kNominal;
    std::uint64_t ordinal = 0;
    bool new_event = false;
    bool want_refit = false;
  };

  RegistryShard& shard_for(const std::string& name);
  const RegistryShard& shard_for(const std::string& name) const;
  Entry& entry_for(const std::string& name);
  std::size_t shard_index_of(const std::string& name) const;
  /// The full per-sample state mutation (push + event bookkeeping + refit
  /// due-tracking), shared verbatim by live ingest and WAL replay so the two
  /// paths cannot drift. Caller holds entry.m and has already validated.
  IngestEffects apply_ingest_locked(Entry& entry, double t, double value);
  static std::unique_ptr<Monitor> load_impl(core::TextReader& in, MonitorOptions options,
                                            bool attach_wal);
  /// Open the WAL on a fresh-or-empty directory (throws when the directory
  /// already holds state) and start the maintenance thread.
  void attach_wal();
  void start_maintenance();
  void stop_maintenance();
  void maintenance_main();
  /// Replay WAL records on top of the current (snapshot-loaded) state.
  void replay(const std::vector<wal::ReplayRecord>& records, wal::RecoveryStats& stats);
  /// Re-queue the refits the log proves were scheduled but never produced a
  /// kRefit/kRefitFail record -- the crashed process's refit queue. Called by
  /// recover() only after the WAL is reattached so the jobs' results are
  /// logged like any live refit.
  void reschedule_pending_refits();
  void refit_job(Entry& entry, const std::string& name, std::uint64_t ordinal);
  StreamSnapshot fill_snapshot(Entry& entry) const;  ///< Caller holds entry.m.
  /// All (name, entry) pairs across shards, sorted by name. Entry pointers
  /// stay valid after the shard locks are dropped (entries never erase).
  std::vector<std::pair<std::string, Entry*>> sorted_entries() const;

  MonitorOptions options_;
  std::size_t model_parameters_ = 0;
  std::size_t min_fit_samples_ = 0;  ///< Effective (options + param floor).
  std::function<bool(const std::string&)> owned_;  ///< Null = own everything.

  std::vector<std::unique_ptr<RegistryShard>> registry_;

  AlertEngine alerts_;

  /// Removed entries are parked here (not destroyed) so that a refit job
  /// still holding a raw Entry* finds a live object with `removed` set
  /// instead of a dangling pointer. Bounded by the number of removes.
  std::mutex graveyard_m_;
  std::vector<std::unique_ptr<Entry>> graveyard_;

  /// Monotonic counters mirrored into the snapshot's "meta" line. They
  /// advance WAL on or off, so a WAL-enabled run and a WAL-free run fed the
  /// same inputs produce byte-identical snapshots.
  std::atomic<std::uint64_t> incarnation_counter_{0};
  std::mutex meta_m_;  ///< Serializes alert-rule log+apply.
  std::uint64_t meta_seq_ = 0;

  std::unique_ptr<wal::Wal> wal_;  ///< Before scheduler_: outlives refit jobs.
  wal::RecoveryStats recovery_stats_;
  /// Streams whose last replayed want-refit edge had no logged result, with
  /// the event ordinal of that edge; filled by replay(), drained (into the
  /// scheduler) by reschedule_pending_refits().
  std::vector<std::pair<std::string, std::uint64_t>> pending_refits_;

  std::mutex checkpoint_m_;  ///< Serializes concurrent checkpoints.
  std::mutex maintenance_m_;
  std::condition_variable maintenance_cv_;
  bool stop_maintenance_ = false;
  std::thread maintenance_;
  std::atomic<bool> shutdown_done_{false};

  // Declared last: destroyed first, so in-flight refit jobs finish while the
  // entries they reference are still alive.
  RefitScheduler scheduler_;
};

}  // namespace prm::live
