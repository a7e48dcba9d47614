#include "vmmc/dsm/dsm.h"

#include <cassert>

namespace vmmc::dsm {

using compat::AmEndpoint;
using vmmc_core::ExportOptions;
using vmmc_core::ImportOptions;

namespace {
// AM control-plane request ids.
constexpr std::uint16_t kFetch = 1;
constexpr std::uint16_t kTryLock = 2;
constexpr std::uint16_t kUnlock = 3;

constexpr std::uint32_t kGranted = 1;
constexpr std::uint32_t kBusy = 0;
}  // namespace

sim::Task<Result<std::unique_ptr<DsmNode>>> DsmNode::Create(
    vmmc_core::Cluster& cluster, int rank, int size, DsmOptions options) {
  using Out = Result<std::unique_ptr<DsmNode>>;
  if (size < 1 || rank < 0 || rank >= size || options.total_pages == 0) {
    co_return Out(InvalidArgument("bad dsm configuration"));
  }
  std::unique_ptr<DsmNode> node(new DsmNode(cluster, rank, size, options));
  auto ep = cluster.OpenEndpoint(rank, options.tag + "-data-" + std::to_string(rank));
  if (!ep.ok()) co_return Out(ep.status());
  node->ep_ = std::move(ep).value();
  auto control = AmEndpoint::Create(cluster, rank);
  if (!control.ok()) co_return Out(control.status());
  node->control_ = std::move(control).value();

  const std::uint32_t pages = options.total_pages;
  const std::uint32_t homed =
      (pages + static_cast<std::uint32_t>(size) - 1) / static_cast<std::uint32_t>(size);

  // Exported home segment: the authoritative copies of pages homed here.
  auto home = node->ep_->AllocBuffer(homed * mem::kPageSize);
  if (!home.ok()) co_return Out(home.status());
  node->home_segment_ = home.value();
  {
    ExportOptions opts;
    opts.name = options.tag + "-home-" + std::to_string(rank);
    auto id = co_await node->ep_->ExportBuffer(node->home_segment_,
                                               homed * mem::kPageSize, std::move(opts));
    if (!id.ok()) co_return Out(id.status());
  }
  // Exported cache region: fetched remote pages + one fetch-flag word per
  // page (homes push completions here).
  const std::uint32_t cache_bytes = pages * mem::kPageSize +
                                    mem::RoundUpToPage(pages * 4);
  auto cache = node->ep_->AllocBuffer(cache_bytes);
  if (!cache.ok()) co_return Out(cache.status());
  node->cache_ = cache.value();
  {
    ExportOptions opts;
    opts.name = options.tag + "-cache-" + std::to_string(rank);
    auto id = co_await node->ep_->ExportBuffer(node->cache_, cache_bytes,
                                               std::move(opts));
    if (!id.ok()) co_return Out(id.status());
  }
  auto staging = node->ep_->AllocBuffer(mem::RoundUpToPage(pages * 4));
  if (!staging.ok()) co_return Out(staging.status());
  node->staging_ = staging.value();

  node->pages_.resize(pages);

  // Control-plane handlers.
  DsmNode* raw = node.get();
  raw->control_->RegisterRequestHandler(
      kFetch, [raw](const AmEndpoint::Payload& args) {
        const std::uint32_t page = args[0];
        const std::uint32_t gen = args[1];
        const int requester = static_cast<int>(args[2]);
        // Push the page + completion flag asynchronously; the AM reply
        // only acknowledges the request.
        raw->cluster_.simulator().Spawn(raw->PushPage(page, gen, requester));
        AmEndpoint::Payload reply{};
        reply[0] = 1;  // accepted
        return reply;
      });
  raw->control_->RegisterRequestHandler(
      kTryLock, [raw](const AmEndpoint::Payload& args) {
        const std::uint32_t lock_id = args[0];
        const int requester = static_cast<int>(args[1]);
        AmEndpoint::Payload reply{};
        auto [it, inserted] = raw->locks_.try_emplace(lock_id, requester);
        if (inserted || it->second == requester) {
          it->second = requester;
          reply[0] = kGranted;
        } else {
          reply[0] = kBusy;
        }
        return reply;
      });
  raw->control_->RegisterRequestHandler(
      kUnlock, [raw](const AmEndpoint::Payload& args) {
        const std::uint32_t lock_id = args[0];
        const int requester = static_cast<int>(args[1]);
        AmEndpoint::Payload reply{};
        auto it = raw->locks_.find(lock_id);
        if (it != raw->locks_.end() && it->second == requester) {
          raw->locks_.erase(it);
          reply[0] = 1;
        }
        return reply;
      });
  co_return std::move(node);
}

sim::Task<Status> DsmNode::Connect(DsmNode& peer) {
  Status c = co_await control_->Connect(*peer.control_);
  if (!c.ok()) co_return c;

  ImportOptions wait;
  wait.wait = true;
  // `wait` is captured by value: the coroutine frame must not hold
  // references into this scope across its suspensions (vmmc-lint R5).
  auto setup = [wait](DsmNode& self, DsmNode& other) -> sim::Task<Status> {
    auto home = co_await self.ep_->ImportBuffer(
        other.rank_, self.options_.tag + "-home-" + std::to_string(other.rank_), wait);
    if (!home.ok()) co_return home.status();
    self.home_proxy_[other.rank_] = home.value().proxy_base;
    auto cache = co_await self.ep_->ImportBuffer(
        other.rank_, self.options_.tag + "-cache-" + std::to_string(other.rank_),
        wait);
    if (!cache.ok()) co_return cache.status();
    self.cache_proxy_[other.rank_] = cache.value().proxy_base;
    co_return OkStatus();
  };
  Status a = co_await setup(*this, peer);
  if (!a.ok()) co_return a;
  co_return co_await setup(peer, *this);
}

sim::Process DsmNode::PushPage(std::uint32_t page, std::uint32_t gen,
                               int requester) {
  auto proxy_it = cache_proxy_.find(requester);
  if (proxy_it == cache_proxy_.end()) co_return;
  const mem::VirtAddr src = home_segment_ + HomeIndex(page) * mem::kPageSize;
  Status sent = co_await ep_->SendMsg(
      src, proxy_it->second + page * mem::kPageSize, mem::kPageSize);
  if (!sent.ok()) co_return;
  // Completion flag; per-page staging words avoid races between
  // concurrent pushes of different pages.
  std::uint8_t flag[4];
  for (int i = 0; i < 4; ++i) flag[i] = static_cast<std::uint8_t>(gen >> (8 * i));
  (void)ep_->WriteBuffer(staging_ + page * 4, flag);
  (void)co_await ep_->SendMsg(
      staging_ + page * 4,
      proxy_it->second + options_.total_pages * mem::kPageSize + page * 4, 4);
}

void DsmNode::StartService() {
  cluster_.simulator().Spawn(control_->ServeLoop());
}

void DsmNode::StopService() { control_->StopServing(); }

sim::Task<Result<mem::VirtAddr>> DsmNode::EnsurePage(std::uint32_t page,
                                                     bool for_write) {
  using Out = Result<mem::VirtAddr>;
  if (page >= options_.total_pages) co_return Out(OutOfRange("page out of range"));
  const int home = HomeOf(page);
  if (home == rank_) {
    // Home pages are read and written in place; the home copy is always
    // authoritative.
    co_return home_segment_ + HomeIndex(page) * mem::kPageSize;
  }

  PageState& state = pages_[page];
  const mem::VirtAddr cached = cache_ + page * mem::kPageSize;
  if (!state.valid) {
    // Fault: ask the home to push the page, then spin on the flag word
    // the home writes after the data (in-order delivery commits it).
    ++stats_.page_fetches;
    const std::uint32_t gen = ++fetch_gen_;
    AmEndpoint::Payload args{};
    args[0] = page;
    args[1] = gen;
    args[2] = static_cast<std::uint32_t>(rank_);
    auto reply = co_await control_->Request(home, kFetch, args);
    if (!reply.ok()) co_return Out(reply.status());
    const mem::VirtAddr flag_va =
        cache_ + options_.total_pages * mem::kPageSize + page * 4;
    const void* flag = ep_->memory().WordPtr(flag_va);
    for (;;) {
      std::uint8_t b[4];
      (void)ep_->ReadBuffer(flag_va, b);
      const std::uint32_t seen = std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
                                 (std::uint32_t{b[2]} << 16) |
                                 (std::uint32_t{b[3]} << 24);
      if (seen == gen) break;
      co_await cluster_.simulator().WaitChange(flag, 2000);
    }
    state.valid = true;
    state.dirty = false;
  }
  if (for_write) state.dirty = true;
  co_return cached;
}

sim::Task<Status> DsmNode::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t pos = offset + done;
    const auto page = static_cast<std::uint32_t>(mem::PageNumber(pos));
    const std::size_t n =
        std::min(out.size() - done, mem::kPageSize - mem::PageOffset(pos));
    auto va = co_await EnsurePage(page, /*for_write=*/false);
    if (!va.ok()) co_return va.status();
    Status r = ep_->ReadBuffer(va.value() + mem::PageOffset(pos),
                               out.subspan(done, n));
    if (!r.ok()) co_return r;
    done += n;
  }
  co_return OkStatus();
}

sim::Task<Status> DsmNode::Write(std::uint64_t offset,
                                 std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = offset + done;
    const auto page = static_cast<std::uint32_t>(mem::PageNumber(pos));
    const std::size_t n =
        std::min(in.size() - done, mem::kPageSize - mem::PageOffset(pos));
    auto va = co_await EnsurePage(page, /*for_write=*/true);
    if (!va.ok()) co_return va.status();
    Status w = ep_->WriteBuffer(va.value() + mem::PageOffset(pos),
                                in.subspan(done, n));
    if (!w.ok()) co_return w;
    done += n;
  }
  co_return OkStatus();
}

sim::Task<Status> DsmNode::Acquire(std::uint32_t lock_id) {
  // Spin on the lock server (rank 0). Local fast path for rank 0 keeps the
  // server from requesting to itself through the network.
  for (;;) {
    std::uint32_t granted = kBusy;
    if (rank_ == 0) {
      auto [it, inserted] = locks_.try_emplace(lock_id, 0);
      granted = (inserted || it->second == 0) ? kGranted : kBusy;
    } else {
      AmEndpoint::Payload args{};
      args[0] = lock_id;
      args[1] = static_cast<std::uint32_t>(rank_);
      auto reply = co_await control_->Request(0, kTryLock, args);
      if (!reply.ok()) co_return reply.status();
      granted = reply.value()[0];
    }
    if (granted == kGranted) break;
    ++stats_.lock_waits;
    co_await cluster_.simulator().Delay(20'000);
  }
  // Entry consistency: drop every cached remote page so reads see the
  // releaser's updates.
  for (auto& p : pages_) p.valid = false;
  co_return OkStatus();
}

sim::Task<Status> DsmNode::Release(std::uint32_t lock_id) {
  // Write back dirty remote pages with direct VMMC sends into their home
  // segments, then release the lock.
  for (std::uint32_t page = 0; page < options_.total_pages; ++page) {
    PageState& state = pages_[page];
    if (!state.dirty) continue;
    const int home = HomeOf(page);
    if (home == rank_) {
      state.dirty = false;
      continue;  // home copy was updated in place
    }
    auto proxy = home_proxy_.find(home);
    if (proxy == home_proxy_.end()) co_return FailedPrecondition("not connected");
    ++stats_.write_backs;
    Status s = co_await ep_->SendMsg(
        cache_ + page * mem::kPageSize,
        proxy->second + HomeIndex(page) * mem::kPageSize, mem::kPageSize);
    if (!s.ok()) co_return s;
    state.dirty = false;
  }

  if (rank_ == 0) {
    auto it = locks_.find(lock_id);
    if (it != locks_.end() && it->second == 0) locks_.erase(it);
    co_return OkStatus();
  }
  AmEndpoint::Payload args{};
  args[0] = lock_id;
  args[1] = static_cast<std::uint32_t>(rank_);
  auto reply = co_await control_->Request(0, kUnlock, args);
  co_return reply.status();
}

}  // namespace vmmc::dsm
