// Pooled allocator for coroutine frames.
//
// Every simulated process and awaited sub-task is a coroutine, so a 64K-rank
// run allocates and frees hundreds of thousands of frames with a handful of
// distinct sizes. `FrameArena` recycles them: frames come from size-class
// free lists backed by large slabs that are bump-allocated once and reused
// for the rest of the process, so steady-state frame churn never touches
// malloc. `Task<T>::promise_type` (task.hpp) and the scheduler's RootRunner
// opt in by inheriting `detail::FrameArenaAllocated`.
//
// The arena is thread-local: each simulation runs on one thread, and
// sim::parallelFor (parallel.hpp) runs several whole simulations at once,
// one per worker, so a per-thread arena needs no locking. Frames must be
// destroyed on the thread that created them — true of every current use,
// since a parallelFor job builds, runs and tears down its simulation on
// the worker that claimed it (hostio's thread-per-rank backend does not
// run coroutines).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <unordered_set>
#include <vector>

// Under AddressSanitizer the arena becomes a pass-through to the global
// allocator: pooled recycling would hide use-after-free of coroutine frames
// from ASan (a freed frame looks "live" because its block is on a free
// list), which is exactly the bug class the sanitizer CI exists to catch.
#if defined(__SANITIZE_ADDRESS__)
#define BGCKPT_ARENA_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BGCKPT_ARENA_PASSTHROUGH 1
#endif
#endif
#ifndef BGCKPT_ARENA_PASSTHROUGH
#define BGCKPT_ARENA_PASSTHROUGH 0
#endif

namespace bgckpt::sim {

class FrameArena {
 public:
  struct Stats {
    std::uint64_t allocs = 0;       // total allocate() calls
    std::uint64_t poolHits = 0;     // served from a free list
    std::uint64_t oversized = 0;    // fell through to operator new
    std::size_t slabBytes = 0;      // reserved slab storage
    std::size_t liveBytes = 0;      // currently outstanding frame bytes
  };

  /// The calling thread's arena.
  static FrameArena& instance();

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes) noexcept;

  const Stats& stats() const { return stats_; }

  // ------------------------------------------------------- audit (simcheck)
  // When auditing, the arena tracks every frame pointer handed out so the
  // SimChecker can detect leaked frames, double frees, and handles resumed
  // after their frame was freed. Only allocations made while the audit is
  // active are tracked; the normal hot path pays one predictable branch.
  enum class PointerState { kUnknown, kLive, kFreed };

  void beginAudit();
  void endAudit();
  bool auditing() const { return auditing_; }
  /// Frames allocated during the audit and not yet freed.
  std::size_t auditLiveCount() const { return auditLive_.size(); }
  /// Deallocations of a pointer that was already freed (and not reissued).
  std::uint64_t auditDoubleFrees() const { return auditDoubleFrees_; }
  /// Classify a pointer (e.g. a coroutine handle address) seen in the audit.
  PointerState pointerState(const void* p) const {
    if (auditLive_.count(p) != 0) return PointerState::kLive;
    if (auditFreed_.count(p) != 0) return PointerState::kFreed;
    return PointerState::kUnknown;
  }

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

 private:
  // Frames round up to 64-byte granularity; sizes beyond the largest class
  // (a pathological coroutine frame) fall through to global operator new.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxClasses = 64;  // up to 4 KiB pooled
  static constexpr std::size_t kSlabBytes = 256 * 1024;

  struct FreeBlock {
    FreeBlock* next;
  };

  void* refill(std::size_t cls);
  void auditOnAllocate(const void* p);
  void auditOnDeallocate(const void* p) noexcept;

  FreeBlock* freeLists_[kMaxClasses] = {};
  std::vector<char*> slabs_;
  char* slabCursor_ = nullptr;
  std::size_t slabRemaining_ = 0;
  Stats stats_;

  bool auditing_ = false;
  std::unordered_set<const void*> auditLive_;
  std::unordered_set<const void*> auditFreed_;
  std::uint64_t auditDoubleFrees_ = 0;
};

namespace detail {

/// Mixin giving a coroutine promise (and therefore its frame) arena-backed
/// allocation. The sized delete is required so blocks return to the right
/// size class.
struct FrameArenaAllocated {
  static void* operator new(std::size_t bytes) {
    return FrameArena::instance().allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FrameArena::instance().deallocate(p, bytes);
  }
};

}  // namespace detail

}  // namespace bgckpt::sim
