// Peak heap accounting for the `peak_heap_mb` metric.
//
// The benchmark replaces the global operator new/delete family with thin
// wrappers over malloc/free that keep a running total of the bytes held
// and its peak. The process's peak RSS would be the obvious memory
// metric, but with several threads allocating, glibc's per-thread arenas
// fragment differently from run to run, and the peak RSS of one workload
// and seed spread by 15–20% between runs; the peak of live bytes does
// not depend on where the allocator placed them.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* note_alloc(void* p) {
  if (!p) throw std::bad_alloc();
  const std::size_t n = malloc_usable_size(p);
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void note_free(void* p) noexcept {
  if (!p) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void* plain_alloc(std::size_t n) { return note_alloc(std::malloc(n ? n : 1)); }

void* aligned_alloc_bytes(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  const std::size_t rounded = ((n ? n : 1) + align - 1) / align * align;
  return note_alloc(std::aligned_alloc(align, rounded));
}

}  // namespace

namespace perfbench {

double peak_heap_mb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return plain_alloc(n); }
void* operator new[](std::size_t n) { return plain_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return aligned_alloc_bytes(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return aligned_alloc_bytes(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return plain_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return plain_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return aligned_alloc_bytes(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return aligned_alloc_bytes(n, a);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { note_free(p); }
void operator delete[](void* p) noexcept { note_free(p); }
void operator delete(void* p, std::size_t) noexcept { note_free(p); }
void operator delete[](void* p, std::size_t) noexcept { note_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  note_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  note_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  note_free(p);
}
