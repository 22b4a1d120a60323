#include "wal/compact.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace prm::wal {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("wal: " + what + " '" + path + "': " +
                           std::strerror(errno));
}

/// write(2) until every byte of `data` is on the fd (or throw).
void write_all(int fd, const std::string& data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed for", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void ensure_dir(const std::string& dir) {
  if (dir.empty()) throw std::runtime_error("wal: empty directory path");
  // Walk the components so nested paths work without an external mkdir -p.
  std::string prefix;
  std::size_t start = 0;
  while (start <= dir.size()) {
    const std::size_t slash = dir.find('/', start);
    const std::size_t end = (slash == std::string::npos) ? dir.size() : slash;
    prefix = dir.substr(0, end);
    if (!prefix.empty()) {
      if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
        fail("cannot create directory", prefix);
      }
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("cannot open directory for fsync", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("fsync failed for directory", dir);
  }
  ::close(fd);
}

void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open temp file", tmp);
  try {
    write_all(fd, contents, tmp);
    if (::fsync(fd) != 0) fail("fsync failed for", tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) fail("close failed for", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename failed onto", path);
  }
  fsync_dir(parent_dir(path));
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open", path);
  std::string data;
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    data.reserve(static_cast<std::size_t>(st.st_size));
  }
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail("read failed for", path);
    }
    if (n == 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return data;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) fail("cannot stat", path);
  return static_cast<std::uint64_t>(st.st_size);
}

bool remove_file(const std::string& path) {
  if (::unlink(path.c_str()) == 0) return true;
  if (errno == ENOENT) return false;
  fail("cannot remove", path);
}

std::string snapshot_path(const std::string& dir) { return dir + "/snapshot.prm"; }

}  // namespace prm::wal
