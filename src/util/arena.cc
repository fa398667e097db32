#include "util/arena.h"

#include <cstdint>

#if HRDM_ASAN
#include <sanitizer/asan_interface.h>
#define HRDM_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define HRDM_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define HRDM_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define HRDM_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hrdm::util {

namespace {

/// Poisoned padding kept between neighbouring allocations under ASan, so a
/// small overflow off the end of one object faults instead of silently
/// corrupting the next.
constexpr size_t kRedzone = HRDM_ASAN ? 8 : 0;

std::byte* AlignUp(std::byte* p, size_t alignment) {
  const auto v = reinterpret_cast<std::uintptr_t>(p);
  const auto aligned = (v + alignment - 1) & ~static_cast<std::uintptr_t>(alignment - 1);
  return p + (aligned - v);
}

}  // namespace

Arena::Arena(size_t block_bytes)
    : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

Arena::~Arena() {
  RunFinalizers();
  // Hand the shadow back clean: the heap may recycle these bytes for
  // ordinary allocations immediately.
  for (Block& b : blocks_) HRDM_ARENA_UNPOISON(b.data.get(), b.size);
  for (Block& b : large_) HRDM_ARENA_UNPOISON(b.data.get(), b.size);
}

void* Arena::Allocate(size_t bytes, size_t alignment) {
  if (bytes == 0) bytes = 1;
  if (alignment == 0) alignment = 1;
  if (cur_ != nullptr) {
    std::byte* out = AlignUp(cur_, alignment);
    // Compare in size_t space so a near-end bump never forms a pointer past
    // the block (UB the sanitizers would rightly flag).
    if (out <= end_ &&
        static_cast<size_t>(end_ - out) >= bytes + kRedzone) {
      cur_ = out + bytes + kRedzone;
      bytes_allocated_ += bytes;
      ++allocations_;
      HRDM_ARENA_UNPOISON(out, bytes);
      return out;
    }
  }
  return AllocateSlow(bytes, alignment);
}

void* Arena::AllocateSlow(size_t bytes, size_t alignment) {
  // Oversized requests get a dedicated block (the large-allocation
  // fallback): they would strand most of a fresh bump block otherwise.
  const size_t worst = bytes + alignment - 1 + kRedzone;
  if (worst > block_bytes_ / 2) {
    large_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(worst), worst});
    std::byte* base = large_.back().data.get();
    bytes_reserved_ += worst;
    HRDM_ARENA_POISON(base, worst);
    std::byte* out = AlignUp(base, alignment);
    bytes_allocated_ += bytes;
    ++allocations_;
    HRDM_ARENA_UNPOISON(out, bytes);
    return out;
  }
  if (cur_ == nullptr && !blocks_.empty()) {
    current_ = 0;  // first allocation after Reset: reuse the retained blocks
  } else if (!blocks_.empty() && current_ + 1 < blocks_.size()) {
    ++current_;
  } else {
    blocks_.push_back(Block{
        std::make_unique_for_overwrite<std::byte[]>(block_bytes_),
        block_bytes_});
    bytes_reserved_ += block_bytes_;
    current_ = blocks_.size() - 1;
    HRDM_ARENA_POISON(blocks_.back().data.get(), block_bytes_);
  }
  cur_ = blocks_[current_].data.get();
  end_ = cur_ + blocks_[current_].size;
  // Guaranteed to fit now: worst <= block_bytes_ / 2 <= every block's size.
  return Allocate(bytes, alignment);
}

void Arena::RunFinalizers() {
  // Reverse creation order, mirroring stack unwinding.
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->fn(it->obj);
  }
  finalizers_.clear();
}

void Arena::Reset() {
  RunFinalizers();
  for (Block& b : large_) HRDM_ARENA_UNPOISON(b.data.get(), b.size);
  for (const Block& b : large_) bytes_reserved_ -= b.size;
  large_.clear();
  // The retained blocks go back to fully poisoned: any pointer from before
  // the Reset now faults under ASan instead of reading recycled bytes.
  for (Block& b : blocks_) HRDM_ARENA_POISON(b.data.get(), b.size);
  current_ = 0;
  cur_ = nullptr;
  end_ = nullptr;
  bytes_allocated_ = 0;
  allocations_ = 0;
}

}  // namespace hrdm::util
