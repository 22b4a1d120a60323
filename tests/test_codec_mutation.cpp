// Mutation tests for the text loaders: Monitor::load, core::load_fit,
// StreamState::load and the replay of WAL payloads. A seeded in-repo mutator
// corrupts valid inputs (bit flips, cut and duplicated ranges, inserted
// bytes, numbers swapped for extreme spellings); every mutant must either
// load or throw a std::exception -- no crash, no sanitizer report, no hang.
// WAL payloads are re-framed with a valid CRC so that the payload parser,
// not the frame check, is what meets them. Seeds and budgets are fixed, so a
// failure reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "codec_fixture.hpp"
#include "core/serialize.hpp"
#include "live/monitor.hpp"
#include "wal/compact.hpp"
#include "wal/record.hpp"
#include "wal/segment.hpp"

namespace {

using namespace prm;

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }

  /// One to three edits of `text`.
  std::string mutate(std::string text) {
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) edit(text);
    return text;
  }

 private:
  void edit(std::string& text) {
    static const char* const kSpellings[] = {
        "-1", "0", "1e400", "nan", "-inf", "18446744073709551616", "99999999999",
        "4294967296", "+1", "1.5x", "", " ", "\n", "-0", "1e-320", "prm-fit"};
    const std::size_t at = below(text.size() + 1);
    switch (below(6)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[below(text.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1:  // cut a range
        text.erase(at, 1 + below(16));
        break;
      case 2:  // duplicate a range
        text.insert(at, text.substr(below(text.size() + 1), 1 + below(24)));
        break;
      case 3:  // insert random bytes
        for (std::size_t n = 1 + below(4); n > 0; --n) {
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(below(256)));
        }
        break;
      case 4: {  // replace the token at `at` with an extreme spelling
        std::size_t begin = at;
        while (begin > 0 && text[begin - 1] != ' ' && text[begin - 1] != '\n') --begin;
        std::size_t end = at;
        while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
        text.replace(begin, end - begin, kSpellings[below(std::size(kSpellings))]);
        break;
      }
      default:  // truncate
        text.resize(at);
        break;
    }
  }

  std::uint64_t state_;
};

/// Runs `load` on `count` mutants of `input`; fails on anything thrown that
/// is not a std::exception. Returns how many mutants loaded.
template <class Load>
int survive(const std::string& input, std::uint64_t seed, int count, Load load) {
  Mutator mutator(seed);
  int loaded = 0;
  for (int i = 0; i < count; ++i) {
    const std::string mutant = mutator.mutate(input);
    try {
      load(mutant);
      ++loaded;
    } catch (const std::exception&) {
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw a non-std exception";
    }
  }
  return loaded;
}

/// A snapshot with a real model's fit: a batched competing-risks monitor
/// fed one dip, so the fit and transition lines are those of a live event.
std::string competing_risks_snapshot() {
  live::MonitorOptions options;
  options.stream.window_capacity = 64;
  options.stream.cusum.baseline = 12;
  options.refit_every = 4;
  options.threads = 1;
  options.batched_refits = true;
  live::Monitor monitor(options);
  for (int t = 0; t < 36; ++t) {
    monitor.ingest("svc", t, codec_fixture::dip(t));
    monitor.refit_batch(1);
  }
  std::string text;
  monitor.save(text);
  return text;
}

/// The text of the first `prm-fit`/`prm-stream` block in a snapshot.
std::string block(const std::string& snapshot, std::string_view head,
                  std::string_view next) {
  const std::size_t begin = snapshot.find(head);
  const std::size_t end = snapshot.find(next, begin);
  return snapshot.substr(begin, end - begin);
}

TEST(CodecMutation, MonitorLoadSurvivesMutants) {
  codec_fixture::register_probe_model();
  const live::MonitorOptions options = codec_fixture::options("");
  const auto load = [&options](const std::string& text) {
    std::istringstream in(text);
    auto monitor = live::Monitor::load(in, options);
    std::string saved;
    monitor->save(saved);
  };
  const int a = survive(competing_risks_snapshot(), 101, 300, load);
  const int b = survive(wal::read_file(codec_fixture::recovered_path()), 102, 300, load);
  EXPECT_GT(a + b, 0) << "no mutant loaded: the mutator only exercises the first check";
}

TEST(CodecMutation, LoadFitSurvivesMutants) {
  const std::string fit = block(competing_risks_snapshot(), "prm-fit", "fit_event_ordinal");
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    core::FitResult loaded = core::load_fit(in);
    std::string saved;
    core::save_fit(saved, loaded);
  };
  load(fit);  // the unmutated block loads
  survive(fit, 201, 1500, load);
}

TEST(CodecMutation, StreamStateLoadSurvivesMutants) {
  const std::string stream = block(competing_risks_snapshot(), "prm-stream", "fit ");
  live::StreamConfig config;
  config.window_capacity = 64;
  config.cusum.baseline = 12;
  const auto load = [&config](const std::string& text) {
    std::istringstream in(text);
    live::StreamState state = live::StreamState::load(in, config);
    std::string saved;
    state.save(saved);
    state.push(state.last_time() + 1.0, 1.0);
  };
  load(stream);
  survive(stream, 301, 1500, load);
}

TEST(CodecMutation, ReplayedWalPayloadsSurviveMutants) {
  // The fixture's snapshot plus its log, one payload mutated per round and
  // every frame re-encoded, so each mutant passes the CRC and reaches the
  // payload parser and the replay behind it.
  std::vector<wal::Record> records;
  for (const wal::SegmentInfo& segment : wal::list_segments(codec_fixture::fixture_dir())) {
    wal::read_segment(segment.path, [&](const wal::Record& r) { records.push_back(r); });
  }
  ASSERT_FALSE(records.empty());
  const std::string snapshot =
      wal::read_file(wal::snapshot_path(codec_fixture::fixture_dir()));
  Mutator pick(401);
  Mutator mutator(402);
  int recovered = 0;
  for (int round = 0; round < 120; ++round) {
    codec_fixture::TempDir dir;
    std::string log;
    const std::size_t victim = pick.below(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      wal::Record record = records[i];
      if (i == victim) record.payload = mutator.mutate(record.payload);
      log += wal::encode_frame(record);
    }
    std::ofstream(dir.path() + "/wal-0000-00000002.log", std::ios::binary) << log;
    std::ofstream(wal::snapshot_path(dir.path()), std::ios::binary) << snapshot;
    try {
      auto monitor = live::Monitor::recover(codec_fixture::options(dir.path()));
      std::string saved;
      monitor->save(saved);
      ++recovered;
    } catch (const std::exception&) {
    } catch (...) {
      ADD_FAILURE() << "round " << round << " threw a non-std exception";
    }
  }
  EXPECT_GT(recovered, 0);
}

}  // namespace
