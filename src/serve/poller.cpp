#include "serve/poller.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace prm::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Poller::Poller()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      events_(64) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const int saved = errno;
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    errno = saved;
    throw_errno("Poller: epoll/eventfd setup");
  }
}

Poller::~Poller() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void Poller::add(int fd, bool want_read, bool want_write) {
  control(EPOLL_CTL_ADD, fd, want_read, want_write);
}

void Poller::modify(int fd, bool want_read, bool want_write) {
  control(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void Poller::remove(int fd) {
  epoll_event ev{};
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

int Poller::wait(std::vector<PollerEvent>& out, int timeout_ms) {
  out.clear();
  const int n = ::epoll_wait(epoll_fd_, events_.data(),
                             static_cast<int>(events_.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_wait");
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const epoll_event& ready = events_[static_cast<std::size_t>(i)];
    if (ready.data.fd == wake_fd_) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &count, sizeof count);
      continue;
    }
    PollerEvent event;
    event.fd = ready.data.fd;
    event.readable = (ready.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
    event.writable = (ready.events & EPOLLOUT) != 0;
    event.error = (ready.events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(event);
  }
  // A full buffer means there may be more ready fds than slots; grow so the
  // next wait drains them in one call.
  if (static_cast<std::size_t>(n) == events_.size()) events_.resize(events_.size() * 2);
  return static_cast<int>(out.size());
}

void Poller::wake() noexcept {
  // Nonblocking: the write fails only when the counter is at its maximum,
  // and then the eventfd is readable already.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Poller::control(int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.data.fd = fd;
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) throw_errno("epoll_ctl");
}

}  // namespace prm::serve
