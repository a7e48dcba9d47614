// Simulated physical memory of one node: a frame allocator plus lazily
// backed byte storage. The allocator hands frames out in a deterministic
// scattered order, reproducing the fact (central to the paper's bandwidth
// analysis, section 5.2) that consecutive virtual pages are usually not
// physically contiguous, which caps DMA transfer units at one page.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vmmc/mem/types.h"
#include "vmmc/util/status.h"

namespace vmmc::mem {

class PhysicalMemory {
 public:
  // `bytes` must be page aligned. `scatter_seed` != 0 shuffles the frame
  // free list deterministically; 0 keeps it sequential.
  explicit PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed = 1);

  std::uint64_t size_bytes() const { return num_frames_ * kPageSize; }
  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t free_frames() const { return free_list_.size(); }

  Result<Pfn> AllocFrame();
  Status FreeFrame(Pfn pfn);
  bool IsAllocated(Pfn pfn) const {
    return pfn < num_frames_ && allocated_[pfn];
  }

  // Byte access; may cross frame boundaries. Reads of never-written memory
  // return zeros. Out-of-range access is a checked failure.
  Status Read(PhysAddr addr, std::span<std::uint8_t> out) const;
  Status Write(PhysAddr addr, std::span<const std::uint8_t> in);

  // Host address of the byte at `addr`, backing its frame if untouched.
  // The pointer stays valid, and sees every later Write to the frame,
  // until the frame is freed; nullptr if `addr` is out of range.
  const std::uint8_t* HostPtr(PhysAddr addr);

 private:
  using Frame = std::array<std::uint8_t, kPageSize>;

  Frame* BackingFor(Pfn pfn) const {
    const std::uint32_t slot = slot_of_[pfn];
    return slot == 0 ? nullptr : backing_[slot - 1].get();
  }
  Frame& EnsureBacking(Pfn pfn);

  // The frame table: dense per-PFN arrays, so every simulated read and
  // write finds its frame by indexing, not hashing. A PFN maps to a
  // 32-bit slot in `backing_` (0: untouched), and the free list holds
  // 32-bit PFNs (a node has far fewer than 2^32 frames), so the table
  // costs no more memory per frame than the 64-bit free list alone did.
  std::uint64_t num_frames_;
  std::vector<std::uint32_t> free_list_;  // popped from the back
  std::vector<bool> allocated_;
  std::vector<std::uint32_t> slot_of_;    // per PFN: backing_ index + 1
  std::vector<std::unique_ptr<Frame>> backing_;  // touched frames
  std::vector<std::uint32_t> free_slots_;  // backing_ entries to reuse
};

}  // namespace vmmc::mem
