// Counting replacements for the global allocation functions, the same hook
// bench/bench_kernel_micro.cc uses ([replacement.functions]). malloc keeps its
// libc definition, so the counter covers exactly the C++ allocations the
// simulator makes. The benchmark runs serially; the atomic only keeps the
// count well defined if a library thread allocates.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace emsim::perfbench {
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

void CountAlloc() { g_heap_allocs.fetch_add(1, std::memory_order_relaxed); }

}  // namespace emsim::perfbench

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  emsim::perfbench::CountAlloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  emsim::perfbench::CountAlloc();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
