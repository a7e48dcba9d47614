#include "vmmc/mem/physical_memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "vmmc/sim/rng.h"

namespace vmmc::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed)
    : num_frames_(bytes / kPageSize),
      allocated_(num_frames_, false),
      slot_of_(num_frames_, 0) {
  assert(bytes % kPageSize == 0);
  assert(num_frames_ <= std::uint64_t{UINT32_MAX} + 1);
  free_list_.reserve(num_frames_);
  // Fill descending so pops from the back yield ascending PFNs by default.
  for (std::uint64_t i = num_frames_; i > 0; --i) {
    free_list_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  if (scatter_seed != 0) {
    sim::Rng rng(scatter_seed);
    for (std::size_t i = free_list_.size(); i > 1; --i) {
      std::swap(free_list_[i - 1],
                free_list_[static_cast<std::size_t>(rng.UniformU64(i))]);
    }
  }
}

Result<Pfn> PhysicalMemory::AllocFrame() {
  if (free_list_.empty()) return ResourceExhausted("out of physical frames");
  const Pfn pfn = free_list_.back();
  free_list_.pop_back();
  allocated_[pfn] = true;
  return pfn;
}

Status PhysicalMemory::FreeFrame(Pfn pfn) {
  if (!IsAllocated(pfn)) return InvalidArgument("frame not allocated");
  allocated_[pfn] = false;
  if (const std::uint32_t slot = std::exchange(slot_of_[pfn], 0); slot != 0) {
    backing_[slot - 1].reset();
    free_slots_.push_back(slot - 1);
  }
  free_list_.push_back(static_cast<std::uint32_t>(pfn));
  return OkStatus();
}

PhysicalMemory::Frame& PhysicalMemory::EnsureBacking(Pfn pfn) {
  if (Frame* f = BackingFor(pfn)) return *f;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(backing_.size());
    backing_.emplace_back();
  }
  backing_[slot] = std::make_unique<Frame>();  // value-initialized: zeros
  slot_of_[pfn] = slot + 1;
  return *backing_[slot];
}

const std::uint8_t* PhysicalMemory::HostPtr(PhysAddr addr) {
  if (addr >= size_bytes()) return nullptr;
  return EnsureBacking(PageNumber(addr)).data() + PageOffset(addr);
}

Status PhysicalMemory::Read(PhysAddr addr, std::span<std::uint8_t> out) const {
  if (out.empty()) return OkStatus();
  if (addr + out.size() > size_bytes() || addr + out.size() < addr) {
    return OutOfRange("physical read past end of memory");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const Pfn pfn = PageNumber(addr + done);
    const std::size_t off = PageOffset(addr + done);
    const std::size_t n = std::min(out.size() - done, kPageSize - off);
    if (const Frame* f = BackingFor(pfn)) {
      std::memcpy(out.data() + done, f->data() + off, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
  return OkStatus();
}

Status PhysicalMemory::Write(PhysAddr addr, std::span<const std::uint8_t> in) {
  if (in.empty()) return OkStatus();
  if (addr + in.size() > size_bytes() || addr + in.size() < addr) {
    return OutOfRange("physical write past end of memory");
  }
  std::size_t done = 0;
  while (done < in.size()) {
    const Pfn pfn = PageNumber(addr + done);
    const std::size_t off = PageOffset(addr + done);
    const std::size_t n = std::min(in.size() - done, kPageSize - off);
    Frame& f = EnsureBacking(pfn);
    std::memcpy(f.data() + off, in.data() + done, n);
    done += n;
  }
  return OkStatus();
}

}  // namespace vmmc::mem
