#include "wal/segment.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "wal/compact.hpp"

namespace prm::wal {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("wal segment: " + what + " '" + path + "': " +
                           std::strerror(errno));
}

}  // namespace

SegmentWriter::SegmentWriter(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) fail("cannot open", path_);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("cannot stat", path_);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void SegmentWriter::append(std::string_view frame) {
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + done, frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed for", path_);
    }
    done += static_cast<std::size_t>(n);
  }
  size_ += frame.size();
}

void SegmentWriter::sync() {
  if (::fsync(fd_) != 0) fail("fsync failed for", path_);
}

SegmentScan read_segment(const std::string& path, const std::function<void(Record&)>& fn) {
  const std::string data = read_file(path);
  SegmentScan scan;
  scan.total_bytes = data.size();
  std::size_t offset = 0;
  Record record;
  for (;;) {
    const DecodeStatus status = decode_frame(data, offset, record);
    if (status == DecodeStatus::kOk) {
      ++scan.records;
      scan.clean_bytes = offset;
      fn(record);
      continue;
    }
    scan.torn = (status == DecodeStatus::kTorn);
    break;
  }
  return scan;
}

}  // namespace prm::wal
