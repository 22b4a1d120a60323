// Readiness notification for the event-driven server, the cluster's
// upstream reactor and the serve_load client: one Linux epoll instance plus
// the eventfd that wakes it from other threads. The service layer is
// Linux-only (epoll, eventfd, SO_REUSEPORT).
//
// Level-triggered: an fd stays reported until the condition is consumed.
// The server relies on that (it stops reading while a request is executing
// and resumes afterwards without re-arm bookkeeping).
//
// A Poller belongs to exactly one reactor thread; add/modify/remove/wait are
// not thread-safe. wake() is: any thread may call it for as long as the
// Poller lives. The eventfd is closed only by the destructor and has no
// reader end that could close first, so a late wake() can neither raise
// SIGPIPE nor land in a reused fd.
#pragma once

#include <sys/epoll.h>

#include <vector>

namespace prm::serve {

struct PollerEvent {
  int fd = -1;
  bool readable = false;  ///< Read (or accept) will not block; includes EOF.
  bool writable = false;
  bool error = false;  ///< EPOLLERR/EPOLLHUP on the fd.
};

class Poller {
 public:
  /// Creates the epoll instance and its wakeup eventfd; throws
  /// std::runtime_error when either cannot be created.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register fd with the given interest set. fd must not already be added.
  void add(int fd, bool want_read, bool want_write);

  /// Change interest for an already-added fd. Interest {false,false} keeps
  /// the fd registered; error conditions may still be reported for it.
  void modify(int fd, bool want_read, bool want_write);

  /// Deregister fd. Must be called before the fd is closed.
  void remove(int fd);

  /// Block up to timeout_ms (-1 = forever, 0 = poll) and fill `out` with the
  /// ready set. A wake() ends the wait and is consumed here, never reported.
  /// Returns out.size() (0 on timeout, wakeup or EINTR).
  int wait(std::vector<PollerEvent>& out, int timeout_ms);

  /// Make the current or the next wait() return. Thread-safe, never blocks.
  void wake() noexcept;

 private:
  void control(int op, int fd, bool want_read, bool want_write);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<epoll_event> events_;
};

}  // namespace prm::serve
