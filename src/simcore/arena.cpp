#include "simcore/arena.hpp"

#include <cstdlib>
#include <new>

namespace bgckpt::sim {

FrameArena& FrameArena::instance() {
  thread_local FrameArena arena;
  return arena;
}

FrameArena::~FrameArena() {
  for (Slab* slab : slabs_)
    ::operator delete(slab, std::align_val_t{kSlabBytes});
}

void FrameArena::beginAudit() {
  auditing_ = true;
  auditLive_.clear();
  auditFreed_.clear();
  auditDoubleFrees_ = 0;
}

void FrameArena::endAudit() {
  auditing_ = false;
  auditLive_.clear();
  auditFreed_.clear();
}

void FrameArena::auditOnAllocate(const void* p) {
  auditLive_.insert(p);
  auditFreed_.erase(p);
}

void FrameArena::auditOnDeallocate(const void* p) noexcept {
  if (auditLive_.erase(p) != 0) {
    auditFreed_.insert(p);
  } else if (auditFreed_.count(p) != 0) {
    // Freed while already on the freed list and never reissued: double free.
    ++auditDoubleFrees_;
  }
  // Unknown pointers (allocated before the audit began) free silently.
}

void* FrameArena::allocate(std::size_t bytes) {
  ++stats_.allocs;
  if (bytes == 0) bytes = 1;
  if (BGCKPT_ARENA_PASSTHROUGH) {
    void* p = ::operator new(bytes);
    if (auditing_) auditOnAllocate(p);
    return p;
  }
  const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
  if (cls > kMaxClasses) {
    ++stats_.oversized;
    void* p = ::operator new(bytes);
    if (auditing_) auditOnAllocate(p);
    return p;
  }
  const std::size_t blockBytes = cls * kGranularity;
  stats_.liveBytes += blockBytes;
  Slab* s = partials_[cls - 1];
  if (s == nullptr) s = newSlab(cls);
  void* p = nullptr;
  if (s->free != nullptr) {
    ++stats_.poolHits;
    p = s->free;
    s->free = s->free->next;
  } else {
    p = s->bump;
    s->bump += blockBytes;
  }
  ++s->live;
  const char* end = reinterpret_cast<const char*>(s) + kSlabBytes;
  if (s->free == nullptr &&
      static_cast<std::size_t>(end - s->bump) < blockBytes)
    unlinkPartial(s, cls);  // full
  if (auditing_) auditOnAllocate(p);
  return p;
}

void FrameArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (auditing_) auditOnDeallocate(p);
  if (bytes == 0) bytes = 1;
  if (BGCKPT_ARENA_PASSTHROUGH) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
  if (cls > kMaxClasses) {
    ::operator delete(p);
    return;
  }
  stats_.liveBytes -= cls * kGranularity;
  Slab* s = slabOf(p);
  auto* block = static_cast<FreeBlock*>(p);
  block->next = s->free;
  s->free = block;
  --s->live;
  if (!s->partial) {
    linkPartial(s, cls);
  } else if (s->live == 0 && (s->prev != nullptr || s->next != nullptr)) {
    // Fully free and not the class's last partial slab: hand it to the
    // pool every class draws from. The last one stays as the class's
    // cache, so a class that empties and refills does not churn slabs.
    unlinkPartial(s, cls);
    s->next = empty_;
    empty_ = s;
  }
}

FrameArena::Slab* FrameArena::newSlab(std::size_t cls) {
  Slab* s = empty_;
  if (s != nullptr) {
    empty_ = s->next;
  } else {
    s = static_cast<Slab*>(
        ::operator new(kSlabBytes, std::align_val_t{kSlabBytes}));
    slabs_.push_back(s);
    stats_.slabBytes += kSlabBytes;
  }
  // The header fills the first block slot; kGranularity is a multiple of
  // __STDCPP_DEFAULT_NEW_ALIGNMENT__, so every block stays aligned.
  *s = Slab{};
  s->bump = reinterpret_cast<char*>(s) + kGranularity;
  linkPartial(s, cls);
  return s;
}

void FrameArena::linkPartial(Slab* s, std::size_t cls) {
  Slab*& head = partials_[cls - 1];
  s->prev = nullptr;
  s->next = head;
  if (head != nullptr) head->prev = s;
  head = s;
  s->partial = true;
}

void FrameArena::unlinkPartial(Slab* s, std::size_t cls) {
  if (s->prev != nullptr)
    s->prev->next = s->next;
  else
    partials_[cls - 1] = s->next;
  if (s->next != nullptr) s->next->prev = s->prev;
  s->prev = s->next = nullptr;
  s->partial = false;
}

}  // namespace bgckpt::sim
