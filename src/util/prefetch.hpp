// Software prefetch of a live object's cache lines.
//
// A hint to the memory system, nothing more: no result depends on it, and
// a compiler without __builtin_prefetch makes it a no-op. Pass only ranges
// of live objects, so no dangling or past-the-end address is ever formed
// from a pointer that the program itself would not read.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mstc::util {

/// Asks the cache to load, for reading, every line that [object, object +
/// bytes) touches. `bytes` == 0 issues nothing.
inline void prefetch(const void* object, std::size_t bytes) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  constexpr std::uintptr_t kLine = 64;
  const auto begin = reinterpret_cast<std::uintptr_t>(object);
  for (std::uintptr_t line = begin & ~(kLine - 1); line < begin + bytes;
       line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
  // GCC counts __builtin_prefetch as free of side effects, so it finds a
  // function that only prefetches const and deletes the calls to it (seen
  // with GCC 12 at -O2 and -O3). An empty volatile asm is a side effect
  // that emits no instruction, and keeps the prefetches.
  __asm__ __volatile__("");
#else
  (void)object;
  (void)bytes;
#endif
}

}  // namespace mstc::util
