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
#include <unordered_map>
#include <unordered_set>
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
  bool IsAllocated(Pfn pfn) const { return allocated_.contains(pfn); }

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

  Frame* BackingFor(Pfn pfn) const;  // nullptr if untouched
  Frame& EnsureBacking(Pfn pfn);

  std::uint64_t num_frames_;
  std::vector<Pfn> free_list_;  // popped from the back
  std::unordered_set<Pfn> allocated_;
  mutable std::unordered_map<Pfn, std::unique_ptr<Frame>> backing_;
};

}  // namespace vmmc::mem
