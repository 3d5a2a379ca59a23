#ifndef CSC_UTIL_PAGE_ALLOCATOR_H_
#define CSC_UTIL_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define CSC_PAGE_ALLOCATOR_MMAP 1
#include <sys/mman.h>
#endif

namespace csc {

/// An allocator for buffers that pool threads grow and another thread
/// frees, and for buffers that must leave the process when freed (a label
/// arena's payload, the label store's slabs): a block of a page or more is
/// mapped straight from the operating system and unmapped when freed;
/// smaller blocks come from operator new.
///
/// glibc serves each thread from its own malloc arena, and a freed block
/// returns to the arena it came from. A parallel build's staging buffers
/// grow on pool threads, so once freed they collect at the top of those
/// threads' arenas, which malloc_trim does not release (it trims only the
/// main arena's top) and which the free path keeps while an earlier free of
/// a large block has raised glibc's dynamic trim threshold. A process that
/// builds more than once, such as a serving engine that rebuilds, would
/// keep them resident for good: about 10 MB on WKT@0.5 at 4 build threads.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // rebinding, as std::allocator

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
#if defined(CSC_PAGE_ALLOCATOR_MMAP)
    if (bytes >= kMinMappedBytes) {
      T* pages = static_cast<T*>(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
      if (static_cast<void*>(pages) == MAP_FAILED) throw std::bad_alloc();
      return pages;
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, size_t n) {
    const size_t bytes = n * sizeof(T);
#if defined(CSC_PAGE_ALLOCATOR_MMAP)
    if (bytes >= kMinMappedBytes) {
      ::munmap(p, bytes);
      return;
    }
#endif
    ::operator delete(p);
  }

  template <typename U>
  friend bool operator==(const PageAllocator&, const PageAllocator<U>&) {
    return true;
  }

 private:
  static constexpr size_t kMinMappedBytes = 4096;
};

/// A PageAllocator that default-initializes, so a resize leaves new
/// elements of a trivial type unwritten and the pages under them untouched
/// until written. Only for a buffer whose owner writes every element it
/// sizes before reading any (a label arena's payload, sized for its runs
/// and then filled run by run).
template <typename T>
class DefaultInitPageAllocator : public PageAllocator<T> {
 public:
  DefaultInitPageAllocator() = default;
  template <typename U>
  DefaultInitPageAllocator(const DefaultInitPageAllocator<U>&) {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace csc

#endif  // CSC_UTIL_PAGE_ALLOCATOR_H_
