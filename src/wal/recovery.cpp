#include "wal/recovery.hpp"

#include <utility>

#include "wal/segment.hpp"

namespace prm::wal {

std::vector<ReplayRecord> read_all_records(const std::string& dir,
                                           RecoveryStats& stats) {
  std::vector<ReplayRecord> records;
  for (const SegmentInfo& info : list_segments(dir)) {
    ++stats.segments;
    const SegmentScan scan =
        read_segment(info.path, [&](Record& record) {
          records.push_back(ReplayRecord{info.shard, info.seq, std::move(record)});
        });
    stats.records += scan.records;
    if (scan.torn) ++stats.torn_tails;
  }
  return records;
}

}  // namespace prm::wal
