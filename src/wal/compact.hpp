// Filesystem primitives backing WAL compaction and crash-safe snapshots.
//
// Compaction folds the log into the snapshot: drain refits, rotate the shard
// logs (sealing every segment written so far), write the full monitor
// snapshot ATOMICALLY next to the segments, then delete the sealed segments
// the snapshot now covers. The atomic write here is the keystone: the
// snapshot is first written to "<path>.tmp", flushed AND fsynced, then
// rename(2)d over the target -- a crash at any instant leaves either the old
// complete snapshot or the new complete snapshot, never a half-written one.
// live::Monitor::save_file uses the same primitive, which is what makes a
// plain `monitor --save` crash-safe too.
//
// All functions throw std::runtime_error on I/O failure, with errno text in
// the message.
#pragma once

#include <cstdint>
#include <string>

namespace prm::wal {

/// Create `dir` (and parents) if missing; no-op when it already exists.
void ensure_dir(const std::string& dir);

/// fsync a directory so recently created/renamed/removed entries survive a
/// power failure (file data alone is not enough: the NAME must be durable).
void fsync_dir(const std::string& dir);

/// Write `contents` to `path` crash-safely: temp file, write, fsync, rename
/// over the target, fsync the parent directory.
void atomic_write_file(const std::string& path, const std::string& contents);

/// The whole file; throws std::runtime_error when it cannot be read.
std::string read_file(const std::string& path);

bool file_exists(const std::string& path);

/// Size in bytes; throws when the file cannot be stat'ed.
std::uint64_t file_size(const std::string& path);

/// Unlink; returns false when the file did not exist, throws on other errors.
bool remove_file(const std::string& path);

/// The snapshot a WAL directory compacts into ("<dir>/snapshot.prm").
std::string snapshot_path(const std::string& dir);

}  // namespace prm::wal
