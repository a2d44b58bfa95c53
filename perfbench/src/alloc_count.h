#ifndef EMSIM_PERFBENCH_ALLOC_COUNT_H_
#define EMSIM_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace emsim::perfbench {

/// Global `operator new` calls made by this process so far. Exact and
/// machine-independent: the benchmark replaces the global allocation
/// functions (alloc_count.cc), so every C++ heap allocation is counted.
uint64_t HeapAllocs();

}  // namespace emsim::perfbench

#endif  // EMSIM_PERFBENCH_ALLOC_COUNT_H_
