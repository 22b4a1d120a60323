#include "live/stream_state.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace prm::live {

namespace {

constexpr int kFormatVersion = 1;

// Same floor as data::detect_downward_shift: a flat baseline must still be
// able to alarm without making every deviation infinite-sigma.
double floored_sigma(double sigma, double mean) {
  const double floor = 1e-6 * std::max(std::fabs(mean), 1.0);
  return std::max(sigma, floor);
}

}  // namespace

std::string_view to_string(StreamPhase phase) {
  switch (phase) {
    case StreamPhase::kNominal: return "NOMINAL";
    case StreamPhase::kDegrading: return "DEGRADING";
    case StreamPhase::kRecovering: return "RECOVERING";
    case StreamPhase::kRestored: return "RESTORED";
  }
  return "UNKNOWN";
}

StreamPhase phase_from_string(std::string_view s) {
  if (s == "NOMINAL") return StreamPhase::kNominal;
  if (s == "DEGRADING") return StreamPhase::kDegrading;
  if (s == "RECOVERING") return StreamPhase::kRecovering;
  if (s == "RESTORED") return StreamPhase::kRestored;
  throw std::invalid_argument("phase_from_string: unknown phase '" + std::string(s) + "'");
}

StreamState::StreamState(std::string name, StreamConfig config)
    : name_(std::move(name)), config_(config) {
  if (name_.empty() ||
      name_.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "StreamState: name must be non-empty and contain no whitespace");
  }
  if (config_.cusum.baseline < 2) {
    throw std::invalid_argument("StreamState: cusum.baseline must be >= 2");
  }
  if (config_.window_capacity < config_.cusum.baseline + 2) {
    throw std::invalid_argument(
        "StreamState: window_capacity must be >= cusum.baseline + 2");
  }
  if (config_.max_event_samples < 16) {
    throw std::invalid_argument("StreamState: max_event_samples must be >= 16");
  }
  if (config_.confirm_samples < 1) {
    throw std::invalid_argument("StreamState: confirm_samples must be >= 1");
  }
  if (!(config_.recovery_fraction > 0.0)) {
    throw std::invalid_argument("StreamState: recovery_fraction must be positive");
  }
  ring_times_.resize(config_.window_capacity);
  ring_values_.resize(config_.window_capacity);
}

bool StreamState::event_active() const noexcept {
  return phase_ == StreamPhase::kDegrading || phase_ == StreamPhase::kRecovering;
}

std::optional<double> StreamState::onset_time() const {
  if (event_ordinal_ == 0) return std::nullopt;
  return onset_time_;
}

std::optional<double> StreamState::onset_peak_value() const {
  if (event_ordinal_ == 0) return std::nullopt;
  return onset_peak_value_;
}

std::optional<double> StreamState::trough_time() const {
  if (event_ordinal_ == 0) return std::nullopt;
  return event_trough_time_;
}

std::optional<double> StreamState::trough_value() const {
  if (event_ordinal_ == 0) return std::nullopt;
  return event_trough_value_;
}

void StreamState::set_predicted_recovery(std::optional<double> t_r_aligned) {
  have_predicted_recovery_ = t_r_aligned.has_value() && std::isfinite(*t_r_aligned);
  predicted_recovery_ = have_predicted_recovery_ ? *t_r_aligned : 0.0;
}

std::optional<double> StreamState::predicted_recovery_time() const {
  if (!have_predicted_recovery_) return std::nullopt;
  return predicted_recovery_;
}

data::PerformanceSeries StreamState::event_series() const {
  if (event_times_.empty()) return data::PerformanceSeries();
  return data::PerformanceSeries(name_ + "/event-" + std::to_string(event_ordinal_),
                                 event_times_, event_values_);
}

data::PerformanceSeries StreamState::window_series() const {
  std::vector<double> t(ring_size_);
  std::vector<double> v(ring_size_);
  for (std::size_t i = 0; i < ring_size_; ++i) {
    const std::size_t j = (ring_head_ + i) % config_.window_capacity;
    t[i] = ring_times_[j];
    v[i] = ring_values_[j];
  }
  if (ring_size_ == 0) return data::PerformanceSeries();
  return data::PerformanceSeries(name_ + "/window", std::move(t), std::move(v));
}

void StreamState::ring_push(double t, double value) {
  if (ring_size_ < config_.window_capacity) {
    const std::size_t j = (ring_head_ + ring_size_) % config_.window_capacity;
    ring_times_[j] = t;
    ring_values_[j] = value;
    ++ring_size_;
  } else {
    ring_times_[ring_head_] = t;
    ring_values_[ring_head_] = value;
    ring_head_ = (ring_head_ + 1) % config_.window_capacity;
  }
}

void StreamState::reset_baseline_accumulator() {
  accum_count_ = 0;
  accum_mean_ = 0.0;
  accum_m2_ = 0.0;
}

double StreamState::aligned_sigma() const {
  if (!have_baseline_ || !(onset_peak_value_ > 0.0)) return 0.0;
  return active_sigma_ / onset_peak_value_;
}

void StreamState::append_event_sample(double t, double value) {
  const double t_al = t - onset_time_;
  const double v_al = value / onset_peak_value_;
  if (v_al < event_trough_value_) {
    event_trough_value_ = v_al;
    event_trough_time_ = t_al;
  }
  ++stride_phase_;
  if (stride_phase_ < event_stride_) return;
  stride_phase_ = 0;
  event_times_.push_back(t_al);
  event_values_.push_back(v_al);
  if (event_times_.size() >= config_.max_event_samples) {
    // Decimate by two: horizon preserved, resolution halved.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < event_times_.size(); i += 2, ++kept) {
      event_times_[kept] = event_times_[i];
      event_values_[kept] = event_values_[i];
    }
    event_times_.resize(kept);
    event_values_.resize(kept);
    event_stride_ *= 2;
  }
}

void StreamState::begin_event(double t, std::uint64_t index) {
  // Locate the pre-hazard peak with the batch onset detector over the
  // buffered window; fall back to a direct walkback when the window-local
  // CUSUM does not reproduce the alarm (e.g. after a very slow drift).
  const data::PerformanceSeries window = window_series();
  std::size_t peak = 0;
  bool located = false;
  if (window.size() >= config_.cusum.baseline + 2) {
    if (const auto onset = data::find_hazard_onset(window, config_.cusum)) {
      peak = onset->peak_index;
      located = true;
    }
  }
  if (!located) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < window.size(); ++i) {
      best = std::max(best, window.value(i));
    }
    const double tol = 2.0 * active_sigma_;
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (window.value(i) >= best - tol) peak = i;
    }
  }

  ++event_ordinal_;
  onset_time_ = window.time(peak);
  onset_peak_value_ = window.value(peak);
  if (!(onset_peak_value_ > 0.0)) onset_peak_value_ = 1.0;
  event_times_.clear();
  event_values_.clear();
  event_stride_ = 1;
  stride_phase_ = 0;
  event_trough_value_ = std::numeric_limits<double>::infinity();
  event_trough_time_ = 0.0;
  dip_min_value_ = std::numeric_limits<double>::infinity();
  rising_count_ = 0;
  recovery_max_ = 0.0;
  falling_count_ = 0;
  restored_count_ = 0;
  have_predicted_recovery_ = false;
  predicted_recovery_ = 0.0;
  cusum_s_ = 0.0;

  // Seed the event with the buffered decline observed so far.
  for (std::size_t i = peak; i < window.size(); ++i) {
    append_event_sample(window.time(i), window.value(i));
  }
  dip_min_value_ = event_trough_value_;

  transitions_.push_back({phase_, StreamPhase::kDegrading, t, index});
  phase_ = StreamPhase::kDegrading;
}

void StreamState::validate_push(double t, double value) const {
  if (!std::isfinite(t) || !std::isfinite(value)) {
    throw std::invalid_argument("StreamState::push: non-finite sample");
  }
  if (samples_seen_ > 0 && !(t > last_time_)) {
    throw std::invalid_argument("StreamState::push: times must be strictly increasing (t = " +
                                std::to_string(t) + " after " + std::to_string(last_time_) +
                                " on stream '" + name_ + "')");
  }
}

std::vector<TransitionEvent> StreamState::push(double t, double value) {
  validate_push(t, value);
  const std::uint64_t index = samples_seen_;
  ++samples_seen_;
  last_time_ = t;
  last_value_ = value;
  ring_push(t, value);

  const std::size_t first_transition = transitions_.size();

  switch (phase_) {
    case StreamPhase::kNominal:
    case StreamPhase::kRestored: {
      // (Re-)establish the baseline from the first cusum.baseline samples of
      // the regime. Detection pauses until the estimate is ready: the new
      // normal may legitimately sit below the pre-event mean (anything >=
      // recovery_fraction counts as recovered), so keeping the stale
      // baseline armed would guarantee a false re-alarm.
      if (accum_count_ < config_.cusum.baseline) {
        ++accum_count_;
        const double d = value - accum_mean_;
        accum_mean_ += d / static_cast<double>(accum_count_);
        accum_m2_ += d * (value - accum_mean_);
        if (accum_count_ == config_.cusum.baseline) {
          const double var = accum_m2_ / static_cast<double>(accum_count_ - 1);
          active_mean_ = accum_mean_;
          active_sigma_ = floored_sigma(std::sqrt(std::max(var, 0.0)), accum_mean_);
          have_baseline_ = true;
          cusum_s_ = 0.0;
          if (phase_ == StreamPhase::kRestored) {
            transitions_.push_back({phase_, StreamPhase::kNominal, t, index});
            phase_ = StreamPhase::kNominal;
          }
        }
      }
      if (have_baseline_) {
        // Incremental one-sided downward CUSUM -- the same accumulation as
        // data::detect_downward_shift, maintained in O(1) per sample.
        const double k = config_.cusum.slack_sigmas * active_sigma_;
        const double h = config_.cusum.threshold_sigmas * active_sigma_;
        cusum_s_ = std::max(0.0, cusum_s_ + (active_mean_ - value) - k);
        if (cusum_s_ > h) begin_event(t, index);
      }
      break;
    }
    case StreamPhase::kDegrading: {
      append_event_sample(t, value);
      const double v_al = value / onset_peak_value_;
      const double eps = std::max(config_.turn_epsilon, 3.0 * aligned_sigma());
      if (v_al < dip_min_value_) {
        dip_min_value_ = v_al;
        rising_count_ = 0;
      } else if (v_al > dip_min_value_ + eps) {
        ++rising_count_;
      } else {
        rising_count_ = 0;
      }
      if (rising_count_ >= config_.confirm_samples) {
        transitions_.push_back({phase_, StreamPhase::kRecovering, t, index});
        phase_ = StreamPhase::kRecovering;
        recovery_max_ = v_al;
        falling_count_ = 0;
        restored_count_ = 0;
      }
      break;
    }
    case StreamPhase::kRecovering: {
      append_event_sample(t, value);
      const double v_al = value / onset_peak_value_;
      recovery_max_ = std::max(recovery_max_, v_al);
      if (v_al < recovery_max_ - config_.redegrade_drop) {
        ++falling_count_;
      } else {
        falling_count_ = 0;
      }
      if (falling_count_ >= config_.confirm_samples) {
        // Re-degradation back-edge: the W-shape's second dip.
        transitions_.push_back({phase_, StreamPhase::kDegrading, t, index});
        phase_ = StreamPhase::kDegrading;
        dip_min_value_ = v_al;
        rising_count_ = 0;
        break;
      }
      if (v_al >= config_.recovery_fraction) {
        ++restored_count_;
      } else {
        restored_count_ = 0;
      }
      // The fitted recovery-time prediction gates the RESTORED declaration:
      // holding at the level is not enough until the model agrees the
      // recovery is due.
      const double t_al = t - onset_time_;
      if (restored_count_ >= config_.confirm_samples &&
          (!have_predicted_recovery_ || t_al >= predicted_recovery_)) {
        transitions_.push_back({phase_, StreamPhase::kRestored, t, index});
        phase_ = StreamPhase::kRestored;
        reset_baseline_accumulator();
        have_baseline_ = false;  // re-arm only once the new baseline is frozen
        cusum_s_ = 0.0;
      }
      break;
    }
  }

  return std::vector<TransitionEvent>(transitions_.begin() + static_cast<std::ptrdiff_t>(first_transition),
                                      transitions_.end());
}

void StreamState::save(std::string& out) const {
  core::TextWriter w(out);
  w << "prm-stream " << kFormatVersion << '\n';
  w << "name " << name_ << '\n';
  w << "phase " << to_string(phase_) << '\n';
  w << "samples_seen " << samples_seen_ << '\n';
  w << "last " << last_time_ << ' ' << last_value_ << '\n';
  const data::PerformanceSeries window = window_series();
  w << "ring_times ";
  w.list(window.times());
  w << "ring_values ";
  w.list(window.values());
  w << "baseline " << (have_baseline_ ? 1 : 0) << ' ' << active_mean_ << ' '
    << active_sigma_ << '\n';
  w << "accum " << accum_count_ << ' ' << accum_mean_ << ' ' << accum_m2_ << '\n';
  w << "cusum " << cusum_s_ << '\n';
  w << "event_ordinal " << event_ordinal_ << '\n';
  w << "onset " << onset_time_ << ' ' << onset_peak_value_ << '\n';
  w << "event_times ";
  w.list(event_times_);
  w << "event_values ";
  w.list(event_values_);
  w << "stride " << event_stride_ << ' ' << stride_phase_ << '\n';
  w << "trough " << event_trough_value_ << ' ' << event_trough_time_ << '\n';
  w << "dip " << dip_min_value_ << ' ' << rising_count_ << '\n';
  w << "recovery " << recovery_max_ << ' ' << falling_count_ << ' ' << restored_count_
    << '\n';
  w << "predicted " << (have_predicted_recovery_ ? 1 : 0) << ' ' << predicted_recovery_
    << '\n';
  w << "transitions " << transitions_.size() << '\n';
  for (const TransitionEvent& ev : transitions_) {
    w << to_string(ev.from) << ' ' << to_string(ev.to) << ' ' << ev.t << ' '
      << ev.sample_index << '\n';
  }
}

void StreamState::save(std::ostream& out) const {
  std::string text;
  save(text);
  out << text;
}

StreamState StreamState::load(core::TextReader& in, StreamConfig config) {
  const char* outer = in.set_context("StreamState::load");
  in.expect("prm-stream");
  const std::uint64_t version = in.count("format version");
  if (version != kFormatVersion) {
    in.fail("unsupported format version " + std::to_string(version));
  }
  in.expect("name");
  StreamState s(std::string(in.token("name")), config);

  in.expect("phase");
  try {
    s.phase_ = phase_from_string(in.token("phase"));
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
  in.expect("samples_seen");
  s.samples_seen_ = in.count("samples_seen");
  in.expect("last");
  s.last_time_ = in.number("last sample");
  s.last_value_ = in.number("last sample");

  in.expect("ring_times");
  const std::vector<double> rt = in.list("ring_times");
  in.expect("ring_values");
  const std::vector<double> rv = in.list("ring_values");
  if (rt.size() != rv.size()) in.fail("ring times/values size mismatch");
  if (rt.size() > config.window_capacity) in.fail("ring larger than window_capacity");
  for (std::size_t i = 0; i < rt.size(); ++i) s.ring_push(rt[i], rv[i]);

  in.expect("baseline");
  s.have_baseline_ = in.count("baseline") != 0;
  s.active_mean_ = in.number("baseline");
  s.active_sigma_ = in.number("baseline");
  in.expect("accum");
  s.accum_count_ = in.count("accum");
  s.accum_mean_ = in.number("accum");
  s.accum_m2_ = in.number("accum");
  in.expect("cusum");
  s.cusum_s_ = in.number("cusum");
  in.expect("event_ordinal");
  s.event_ordinal_ = in.count("event_ordinal");
  in.expect("onset");
  s.onset_time_ = in.number("onset");
  s.onset_peak_value_ = in.number("onset");
  in.expect("event_times");
  s.event_times_ = in.list("event_times");
  in.expect("event_values");
  s.event_values_ = in.list("event_values");
  if (s.event_times_.size() != s.event_values_.size()) {
    in.fail("event times/values size mismatch");
  }
  in.expect("stride");
  s.event_stride_ = in.count("stride");
  s.stride_phase_ = in.count("stride");
  if (s.event_stride_ == 0) in.fail("stride must be positive");
  in.expect("trough");
  s.event_trough_value_ = in.number("trough");
  s.event_trough_time_ = in.number("trough");
  in.expect("dip");
  s.dip_min_value_ = in.number("dip");
  s.rising_count_ = in.count("dip");
  in.expect("recovery");
  s.recovery_max_ = in.number("recovery");
  s.falling_count_ = in.count("recovery");
  s.restored_count_ = in.count("recovery");
  in.expect("predicted");
  s.have_predicted_recovery_ = in.count("predicted") != 0;
  s.predicted_recovery_ = in.number("predicted");

  in.expect("transitions");
  const std::uint64_t n = in.count("transition count");
  // A transition line takes at least 8 bytes ("X Y 0 0\n" with 1-char phases).
  if (n > 1 + (in.remaining() / 8)) in.fail("truncated transitions");
  s.transitions_.resize(static_cast<std::size_t>(n));
  try {
    for (TransitionEvent& ev : s.transitions_) {
      ev.from = phase_from_string(in.token("transition"));
      ev.to = phase_from_string(in.token("transition"));
      ev.t = in.number("transition");
      ev.sample_index = in.count("transition");
    }
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
  in.set_context(outer);
  return s;
}

StreamState StreamState::load(std::istream& in, StreamConfig config) {
  const std::string text = core::read_rest(in);
  core::TextReader reader(text, "StreamState::load");
  return load(reader, config);
}

}  // namespace prm::live
