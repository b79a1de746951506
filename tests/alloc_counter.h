// Process-wide heap-allocation counter for the allocation guards
// (fusion_flat_test, hot_path_test, quality_contract_test). It replaces the
// global operator new and delete, so include it from exactly one translation
// unit of a test binary.

#ifndef WEBDB_TESTS_ALLOC_COUNTER_H_
#define WEBDB_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace webdb {
namespace alloc_counter_internal {

std::atomic<int64_t> g_allocations{0};

// Out of line, so GCC does not pair an inlined `new` with a visible free()
// and report -Wmismatched-new-delete.
[[gnu::noinline]] void ReleaseBlock(void* p) noexcept { std::free(p); }

}  // namespace alloc_counter_internal

// Heap allocations the process has made so far.
int64_t AllocationCount() {
  return alloc_counter_internal::g_allocations.load(std::memory_order_relaxed);
}

}  // namespace webdb

void* operator new(std::size_t size) {
  webdb::alloc_counter_internal::g_allocations.fetch_add(
      1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  webdb::alloc_counter_internal::ReleaseBlock(p);
}
void operator delete[](void* p) noexcept {
  webdb::alloc_counter_internal::ReleaseBlock(p);
}
void operator delete(void* p, std::size_t) noexcept {
  webdb::alloc_counter_internal::ReleaseBlock(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  webdb::alloc_counter_internal::ReleaseBlock(p);
}

#endif  // WEBDB_TESTS_ALLOC_COUNTER_H_
