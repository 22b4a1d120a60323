// Work pin for Monitor::recover: the heap allocations (count and bytes
// requested) that recovering the committed WAL fixture makes on the calling
// thread, counted by a replacement operator new. The pins may only fall: a
// change that makes recovery allocate more has to show why and re-pin.
//
// Measured on the fixture (tests/fixtures/wal_v2: a 2.8 KB snapshot and 52
// log records): the iostream codec made 573 allocations (94,846 bytes); the
// cursor codec makes the counts pinned below. Ordering the replay through
// one std::stable_sort of its index (instead of a counting sort into
// per-stream buckets) makes one allocation fewer but 76 bytes more: the
// merge buffer of half the index outweighs the bucket offsets. The
// directory is always made under /tmp, because the path strings recovery
// builds count too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "codec_fixture.hpp"

namespace {

thread_local bool counting = false;
std::uint64_t allocations = 0;
std::uint64_t bytes = 0;

void* allocate(std::size_t size) {
  if (counting) {
    ++allocations;
    bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that shares malloc/free (the over-aligned ones keep
// the runtime's own pair, which recovery does not use).
void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace prm;

constexpr std::uint64_t kMaxAllocations = 210;
constexpr std::uint64_t kMaxBytes = 50929;

TEST(RecoverAllocations, RecoveringTheFixtureStaysWithinItsPin) {
  codec_fixture::TempDir dir("/tmp");
  codec_fixture::copy_fixture(dir.path());
  const live::MonitorOptions options = codec_fixture::options(dir.path());

  allocations = 0;
  bytes = 0;
  counting = true;
  auto monitor = live::Monitor::recover(options);
  counting = false;

  ASSERT_EQ(monitor->recovery_stats().applied, 52u);
  EXPECT_LE(allocations, kMaxAllocations);
  EXPECT_LE(bytes, kMaxBytes);
  std::printf("Monitor::recover of the fixture: %llu allocations, %llu bytes\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(bytes));
}

}  // namespace
