// Per-process virtual address space: page table, byte access that walks the
// page table, page pinning (for DMA), and a small user heap so examples and
// benchmarks can allocate buffers the way a user program would.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "vmmc/mem/physical_memory.h"
#include "vmmc/mem/types.h"
#include "vmmc/util/status.h"

namespace vmmc::mem {

struct PageTableEntry {
  Pfn pfn = 0;
  bool writable = true;
  std::uint32_t pin_count = 0;  // >0: page may be a DMA source/target
};

// Virtual-to-physical mapping for one process.
class PageTable {
 public:
  bool Contains(Vpn vpn) const { return entries_.contains(vpn); }
  const PageTableEntry* Find(Vpn vpn) const;
  PageTableEntry* Find(Vpn vpn);
  Status Insert(Vpn vpn, PageTableEntry entry);
  Status Erase(Vpn vpn);
  std::size_t size() const { return entries_.size(); }

  template <typename Fn>  // Fn(Vpn, const PageTableEntry&)
  void ForEach(Fn&& fn) const {
    // Visit in VPN order: hash order must not leak to callers (the
    // destructor frees frames through this, and frame-free order feeds
    // the physical allocator's reuse order).
    std::vector<Vpn> vpns;
    vpns.reserve(entries_.size());
    // vmmc-lint: allow(unordered-iter): vpns are sorted below before visiting
    for (const auto& [vpn, entry] : entries_) vpns.push_back(vpn);
    std::sort(vpns.begin(), vpns.end());
    for (Vpn vpn : vpns) fn(vpn, entries_.at(vpn));
  }
  void Clear() { entries_.clear(); }

 private:
  std::unordered_map<Vpn, PageTableEntry> entries_;
};

class AddressSpace {
 public:
  explicit AddressSpace(PhysicalMemory& pm);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  PhysicalMemory& physical_memory() { return pm_; }
  const PageTable& page_table() const { return pt_; }

  // Maps `len` bytes (rounded up to pages) of fresh zeroed memory and
  // returns the base virtual address. Frames come from the scattered
  // allocator, so they are generally not physically contiguous.
  Result<VirtAddr> MapAnonymous(std::uint64_t len, bool writable = true);
  // Unmaps previously mapped pages and frees their frames.
  //
  // Pinned-page semantics, precisely: release listeners (below) fire
  // first, giving caches a chance to drop *idle* pins they hold over the
  // range. After that, if any page in the range is still pinned — an
  // export, an in-flight DMA, or an actively referenced registration —
  // Unmap returns FailedPrecondition and unmaps nothing (the operation
  // is atomic: either every page goes or none does).
  Status Unmap(VirtAddr va, std::uint64_t len);

  // Release listeners: invoked synchronously (no sim-time cost) with the
  // affected [va, va+len) range at the start of Unmap and HeapFree,
  // before any validation. The VMMC registration cache subscribes to
  // invalidate cached pin-downs: entries with no active references are
  // unpinned on the spot so the unmap can proceed; entries still in use
  // keep their pins and Unmap fails as described above. HeapFree never
  // unmaps (heap pages stay resident), but listeners must still treat
  // the range as dead — the block can be handed out again by the next
  // HeapAlloc.
  using ReleaseListener = std::function<void(VirtAddr va, std::uint64_t len)>;
  void AddReleaseListener(ReleaseListener fn);

  // Page-table walk for one address.
  Result<PhysAddr> Translate(VirtAddr va) const;
  // Translation that requires the page to be pinned (used by DMA paths).
  Result<PhysAddr> TranslatePinned(VirtAddr va) const;

  // Byte access through the page table; may cross page boundaries.
  Status Read(VirtAddr va, std::span<std::uint8_t> out) const;
  Status Write(VirtAddr va, std::span<const std::uint8_t> in);

  // Typed helpers for word-sized accesses (completion words, flags).
  Result<std::uint32_t> ReadU32(VirtAddr va) const;
  Status WriteU32(VirtAddr va, std::uint32_t value);

  // Stable host address of the 4-byte word at `va`, for watching it with
  // sim::Simulator::WaitChange (DMA and CPU writes land in the same
  // bytes). Valid until the page is unmapped or its heap block freed;
  // nullptr if `va` is unmapped or the word straddles a page.
  const void* WordPtr(VirtAddr va);

  // Pin/unpin every page overlapping [va, va+len). Pins nest.
  Status Pin(VirtAddr va, std::uint64_t len);
  Status Unpin(VirtAddr va, std::uint64_t len);

  // User heap: first-fit allocator over an arena that grows page-wise.
  Result<VirtAddr> HeapAlloc(std::uint64_t len, std::uint64_t align = 16);
  Status HeapFree(VirtAddr va);

 private:
  void NotifyRelease(VirtAddr va, std::uint64_t len);

  PhysicalMemory& pm_;
  PageTable pt_;
  std::vector<ReleaseListener> release_listeners_;
  VirtAddr next_map_ = 0x1000'0000;  // mmap region cursor

  // Heap bookkeeping: free blocks keyed by address, plus allocation sizes.
  static constexpr VirtAddr kHeapBase = 0x0800'0000;
  VirtAddr heap_end_ = kHeapBase;  // first unmapped heap address
  std::map<VirtAddr, std::uint64_t> heap_free_;
  std::unordered_map<VirtAddr, std::uint64_t> heap_allocs_;
};

}  // namespace vmmc::mem
