// One WAL segment file: an append-only run of CRC-framed records.
//
// SegmentWriter owns the fd for the active segment of one shard. It is NOT
// thread-safe -- the Wal log manager serializes appends per shard -- and it
// never seeks: append() is the only way bytes get in, which is what makes
// the torn-tail-only-at-EOF recovery invariant hold. sync() is split out
// from append() so the log manager can implement group commit (many appends,
// one fsync) and the interval/never policies on top.
//
// read_segment slurps a whole segment and decodes frame by frame, stopping
// at the first torn frame. Segments are bounded (Wal rotates them at
// segment_bytes, 4 MiB by default) so reading one into memory is fine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "wal/record.hpp"

namespace prm::wal {

class SegmentWriter {
 public:
  /// Opens `path` for appending, creating it if needed. Throws
  /// std::runtime_error on failure. The caller fsyncs the parent directory
  /// when it needs the file NAME durable (Wal does, on create/rotate).
  explicit SegmentWriter(std::string path);

  /// Closes without a final fsync (call sync() first to seal cleanly).
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Append raw frame bytes (from encode_frame). Throws on I/O error; on a
  /// short write the segment is left torn exactly as a crash would, and the
  /// caller must stop using this writer.
  void append(std::string_view frame);

  /// fsync the file data. Throws on failure.
  void sync();

  /// Bytes appended so far (resumes from the on-disk size when the file
  /// already existed).
  std::uint64_t size() const noexcept { return size_; }

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

struct SegmentScan {
  std::uint64_t records = 0;     ///< Clean frames decoded.
  std::uint64_t clean_bytes = 0; ///< Bytes consumed by clean frames.
  std::uint64_t total_bytes = 0; ///< File size.
  bool torn = false;             ///< Trailing partial/corrupt frame present.
};

/// Decode every clean frame in `path` in order, invoking `fn` for each; `fn`
/// may move the record's payload out. Returns what was found; throws
/// std::runtime_error only for I/O failures (a torn tail is an expected crash
/// artifact, not an error).
SegmentScan read_segment(const std::string& path, const std::function<void(Record&)>& fn);

}  // namespace prm::wal
