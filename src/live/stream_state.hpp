// Per-stream online state: a fixed-capacity ring buffer of recent samples
// plus an explicit resilience state machine
//
//     NOMINAL --> DEGRADING --> RECOVERING --> RESTORED --> NOMINAL
//                    ^              |             |
//                    +--------------+             |   (re-degradation
//                    ^                            |    back-edges, W-shapes)
//                    +----------------------------+
//
// Onset (NOMINAL/RESTORED -> DEGRADING) is driven by the same one-sided
// CUSUM as data::detect_downward_shift, maintained incrementally in O(1) per
// sample; when it alarms, data::find_hazard_onset is run over the buffered
// window to locate the pre-hazard peak and align the event (t = 0 at the
// peak, values normalized to the peak value) exactly like the batch
// pipeline. The RESTORED transition is driven by a fitted recovery-time
// prediction when one is available (see set_predicted_recovery, fed by
// live::Monitor refits): the stream is only declared RESTORED once the value
// has held at the recovery level AND the predicted t_r has passed.
//
// StreamState is NOT thread-safe; live::Monitor guards each instance with a
// per-stream mutex.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/text_codec.hpp"
#include "data/changepoint.hpp"
#include "data/time_series.hpp"

namespace prm::live {

enum class StreamPhase { kNominal, kDegrading, kRecovering, kRestored };

std::string_view to_string(StreamPhase phase);
StreamPhase phase_from_string(std::string_view s);  ///< Throws on unknown names.

struct StreamConfig {
  /// Ring capacity for the rolling raw-sample window (must be >=
  /// cusum.baseline + 2 so onset localization always has enough context).
  std::size_t window_capacity = 128;

  /// Onset detector knobs, shared with data::detect_downward_shift.
  data::CusumOptions cusum;

  /// Cap on buffered event samples. Longer events are decimated by dropping
  /// every other sample (resolution halves, horizon is preserved).
  std::size_t max_event_samples = 4096;

  /// Aligned performance level (fraction of the pre-hazard peak) at which
  /// the stream counts as recovered.
  double recovery_fraction = 0.98;

  /// Consecutive samples needed to confirm a trough turn, a restoration, or
  /// a re-degradation (debounces single-sample noise).
  std::size_t confirm_samples = 3;

  /// Minimum rise above the running trough (aligned units) that counts as
  /// recovery; the effective threshold is max(this, 3 * aligned baseline
  /// sigma).
  double turn_epsilon = 1e-4;

  /// Drop below the running recovery maximum (aligned units) that re-enters
  /// DEGRADING from RECOVERING -- the W-shape back-edge.
  double redegrade_drop = 0.01;
};

struct TransitionEvent {
  StreamPhase from = StreamPhase::kNominal;
  StreamPhase to = StreamPhase::kNominal;
  double t = 0.0;                 ///< Absolute time of the triggering sample.
  std::uint64_t sample_index = 0; ///< 0-based index of that sample in the stream.
};

class StreamState {
 public:
  explicit StreamState(std::string name, StreamConfig config = {});

  /// Feed one sample. Times must be strictly increasing per stream; throws
  /// std::invalid_argument otherwise. Returns the transitions fired by this
  /// sample in order (usually none; at most two, e.g. RESTORED -> NOMINAL ->
  /// DEGRADING when a fresh disruption hits right after re-baselining).
  std::vector<TransitionEvent> push(double t, double value);

  /// Throws exactly as push(t, value) would, without mutating anything. The
  /// monitor's write-ahead-log path validates first so that a sample that
  /// push() would reject is never logged (replay must never see it).
  void validate_push(double t, double value) const;

  const std::string& name() const noexcept { return name_; }
  const StreamConfig& config() const noexcept { return config_; }
  StreamPhase phase() const noexcept { return phase_; }
  std::uint64_t samples_seen() const noexcept { return samples_seen_; }
  double last_time() const noexcept { return last_time_; }
  double last_value() const noexcept { return last_value_; }

  /// Number of completed+current disruption events (0 while never disrupted;
  /// increments on each NOMINAL/RESTORED -> DEGRADING edge).
  std::uint64_t event_ordinal() const noexcept { return event_ordinal_; }

  /// True in DEGRADING or RECOVERING (an event is in progress).
  bool event_active() const noexcept;

  /// Absolute time / raw value of the latest event's pre-hazard peak
  /// (nullopt until the first disruption).
  std::optional<double> onset_time() const;
  std::optional<double> onset_peak_value() const;

  /// The current -- or, after RESTORED, most recently completed -- event,
  /// aligned like the batch pipeline expects: t = 0 at the pre-hazard peak,
  /// values normalized to the peak value. Empty before the first disruption.
  data::PerformanceSeries event_series() const;
  std::size_t event_size() const noexcept { return event_times_.size(); }

  /// Observed trough of the latest event (aligned units).
  std::optional<double> trough_time() const;
  std::optional<double> trough_value() const;

  /// Latest fitted recovery-time prediction (aligned time units), installed
  /// by the refit pipeline. nullopt clears the gate (value rule alone then
  /// decides the RESTORED transition).
  void set_predicted_recovery(std::optional<double> t_r_aligned);
  std::optional<double> predicted_recovery_time() const;

  /// Rolling raw window (up to window_capacity recent samples).
  data::PerformanceSeries window_series() const;

  /// Every transition fired so far, in order.
  const std::vector<TransitionEvent>& transitions() const noexcept { return transitions_; }

  double baseline_mean() const noexcept { return active_mean_; }
  double baseline_sigma() const noexcept { return active_sigma_; }

  /// Dump/restore the full dynamic state (same line-oriented style and codec
  /// as core/serialize; `save` appends). `load` must be given the same config
  /// the state was running with; the config itself is not serialized.
  void save(std::string& out) const;
  void save(std::ostream& out) const;
  static StreamState load(core::TextReader& in, StreamConfig config = {});
  static StreamState load(std::istream& in, StreamConfig config = {});

 private:
  void ring_push(double t, double value);
  void begin_event(double t, std::uint64_t index);
  void append_event_sample(double t, double value);
  void reset_baseline_accumulator();
  double aligned_sigma() const;

  std::string name_;
  StreamConfig config_;

  StreamPhase phase_ = StreamPhase::kNominal;
  std::uint64_t samples_seen_ = 0;
  double last_time_ = 0.0;
  double last_value_ = 0.0;

  // Rolling raw window (ring buffer).
  std::vector<double> ring_times_;
  std::vector<double> ring_values_;
  std::size_t ring_head_ = 0;  ///< Index of the oldest sample.
  std::size_t ring_size_ = 0;

  // Baseline statistics: the active (frozen) estimate driving the CUSUM and
  // a Welford accumulator building the next one after a re-baseline.
  bool have_baseline_ = false;
  double active_mean_ = 0.0;
  double active_sigma_ = 0.0;
  std::size_t accum_count_ = 0;
  double accum_mean_ = 0.0;
  double accum_m2_ = 0.0;

  double cusum_s_ = 0.0;  ///< One-sided downward CUSUM statistic.

  // Current event (aligned samples since the pre-hazard peak).
  std::uint64_t event_ordinal_ = 0;
  double onset_time_ = 0.0;
  double onset_peak_value_ = 1.0;
  std::vector<double> event_times_;
  std::vector<double> event_values_;
  std::size_t event_stride_ = 1;    ///< Decimation stride (1 = keep everything).
  std::size_t stride_phase_ = 0;    ///< Samples since the last kept one.
  double event_trough_value_ = 0.0;
  double event_trough_time_ = 0.0;

  // Transition debounce counters.
  double dip_min_value_ = 0.0;   ///< Min since the current dip began.
  std::size_t rising_count_ = 0;
  double recovery_max_ = 0.0;    ///< Max since RECOVERING began.
  std::size_t falling_count_ = 0;
  std::size_t restored_count_ = 0;

  bool have_predicted_recovery_ = false;
  double predicted_recovery_ = 0.0;

  std::vector<TransitionEvent> transitions_;
};

}  // namespace prm::live
