// The on-disk formats across builds: tests/fixtures/wal_v2 was written by the
// iostream codec (see codec_fixture.hpp). The same history must produce the
// same bytes today -- every WAL frame and the snapshot -- and the old files
// must recover to exactly the state that build recovered.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codec_fixture.hpp"
#include "wal/compact.hpp"
#include "wal/segment.hpp"

namespace {

using namespace prm;
namespace fs = std::filesystem;

/// File name -> contents, for every file in `dir`.
std::map<std::string, std::string> files_of(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = wal::read_file(entry.path().string());
  }
  return files;
}

TEST(WalCompat, FixtureHoldsEveryRecordTypeAndNonFinitePredictions) {
  std::set<int> types;
  for (const wal::SegmentInfo& segment : wal::list_segments(codec_fixture::fixture_dir())) {
    wal::read_segment(segment.path, [&](const wal::Record& r) {
      types.insert(static_cast<int>(r.type));
    });
  }
  EXPECT_EQ(types, (std::set<int>{1, 2, 3, 4, 5, 6, 7}));

  const std::string snapshot =
      wal::read_file(wal::snapshot_path(codec_fixture::fixture_dir()));
  EXPECT_NE(snapshot.find("\nfit 1\nprm-fit 1\n"), std::string::npos);
  EXPECT_NE(snapshot.find("predicted 1 -inf 1 nan 1 inf\n"), std::string::npos);
  EXPECT_NE(snapshot.find(" low water mark\n"), std::string::npos);
}

TEST(WalCompat, TheSameHistoryWritesTheFixtureByteForByte) {
  codec_fixture::TempDir dir;
  codec_fixture::write_history(dir.path());
  const auto written = files_of(dir.path());
  const auto expected = files_of(codec_fixture::fixture_dir());
  ASSERT_EQ(written.size(), expected.size());
  for (const auto& [name, bytes] : expected) {
    const auto it = written.find(name);
    ASSERT_NE(it, written.end()) << name;
    EXPECT_TRUE(it->second == bytes) << name << " differs";
  }
}

TEST(WalCompat, RecoversTheOlderBuildsDirectoryToItsExactState) {
  codec_fixture::TempDir dir;
  codec_fixture::copy_fixture(dir.path());
  auto monitor = live::Monitor::recover(codec_fixture::options(dir.path()));
  EXPECT_TRUE(monitor->recovery_stats().snapshot_loaded);
  EXPECT_EQ(monitor->recovery_stats().records, 52u);
  EXPECT_EQ(monitor->recovery_stats().applied, 52u);
  std::string saved;
  monitor->save(saved);
  EXPECT_TRUE(saved == wal::read_file(codec_fixture::recovered_path()))
      << "recovered snapshot differs from tests/fixtures/wal_v2_recovered.prm";

  // The stream overloads wrap the same codec.
  std::ostringstream out;
  monitor->save(out);
  EXPECT_TRUE(out.str() == saved);
  std::istringstream in(saved);
  auto reloaded = live::Monitor::load(in, codec_fixture::options(""));
  std::string again;
  reloaded->save(again);
  EXPECT_TRUE(again == saved);
}

}  // namespace
