#include "vmmc/compat/am.h"

#include <cstring>

namespace vmmc::compat {

using vmmc_core::ExportOptions;
using vmmc_core::ImportOptions;

namespace {
// On-buffer slot layout: seq word, handler word, then the fixed payload.
constexpr std::uint32_t kSlotBytes = 8 + AmEndpoint::kPayloadWords * 4;

std::vector<std::uint8_t> EncodeSlot(std::uint32_t seq, std::uint16_t handler,
                                     const AmEndpoint::Payload& payload) {
  std::vector<std::uint8_t> out(kSlotBytes);
  auto put_u32 = [&](std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  };
  // The sequence word is written LAST on the wire because VMMC delivers
  // bytes in order within a message... but a single short send is one
  // chunk, so place seq at the END of the slot: it is the last byte
  // written into receiver memory, making "seq changed" a safe commit
  // point for polling.
  put_u32(0, handler);
  for (std::uint32_t w = 0; w < AmEndpoint::kPayloadWords; ++w) {
    put_u32(4 + w * 4, payload[w]);
  }
  put_u32(4 + AmEndpoint::kPayloadWords * 4, seq);
  return out;
}

struct DecodedSlot {
  std::uint32_t seq;
  std::uint16_t handler;
  AmEndpoint::Payload payload;
};

DecodedSlot DecodeSlot(const std::vector<std::uint8_t>& bytes) {
  auto get_u32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | bytes[off + static_cast<std::size_t>(i)];
    return v;
  };
  DecodedSlot slot;
  slot.handler = static_cast<std::uint16_t>(get_u32(0));
  for (std::uint32_t w = 0; w < AmEndpoint::kPayloadWords; ++w) {
    slot.payload[w] = get_u32(4 + w * 4);
  }
  slot.seq = get_u32(4 + AmEndpoint::kPayloadWords * 4);
  return slot;
}
}  // namespace

AmEndpoint::AmEndpoint(vmmc_core::Cluster& cluster, int node,
                       std::unique_ptr<vmmc_core::Endpoint> ep)
    : cluster_(cluster), node_(node), ep_(std::move(ep)) {}

Result<std::unique_ptr<AmEndpoint>> AmEndpoint::Create(
    vmmc_core::Cluster& cluster, int node) {
  auto ep = cluster.OpenEndpoint(node, "am-" + std::to_string(node));
  if (!ep.ok()) return ep.status();
  std::unique_ptr<AmEndpoint> am(
      new AmEndpoint(cluster, node, std::move(ep).value()));
  auto scratch = am->ep_->AllocBuffer(kSlotBytes);
  if (!scratch.ok()) return scratch.status();
  am->scratch_ = scratch.value();
  return am;
}

sim::Task<Status> AmEndpoint::Connect(AmEndpoint& peer) {
  // Export one request slot and one reply slot for this peer on each side,
  // then cross-import.
  auto setup_one = [](AmEndpoint& self, int peer_node,
                      const std::string& kind) -> sim::Task<Result<mem::VirtAddr>> {
    auto buf = self.ep_->AllocBuffer(mem::kPageSize);
    if (!buf.ok()) co_return Result<mem::VirtAddr>(buf.status());
    ExportOptions opts;
    opts.name = "am-" + kind + "-" + std::to_string(self.node_) + "-" +
                std::to_string(peer_node);
    auto id = co_await self.ep_->ExportBuffer(buf.value(), mem::kPageSize,
                                              std::move(opts));
    if (!id.ok()) co_return Result<mem::VirtAddr>(id.status());
    co_return buf.value();
  };

  auto my_req = co_await setup_one(*this, peer.node_, "req");
  if (!my_req.ok()) co_return my_req.status();
  auto my_reply = co_await setup_one(*this, peer.node_, "reply");
  if (!my_reply.ok()) co_return my_reply.status();
  auto peer_req = co_await setup_one(peer, node_, "req");
  if (!peer_req.ok()) co_return peer_req.status();
  auto peer_reply = co_await setup_one(peer, node_, "reply");
  if (!peer_reply.ok()) co_return peer_reply.status();

  ImportOptions wait;
  wait.wait = true;
  // We send requests into the peer's request slot and receive replies in
  // our reply slot; the peer mirrors this.
  auto to_peer_req = co_await ep_->ImportBuffer(
      peer.node_, "am-req-" + std::to_string(peer.node_) + "-" + std::to_string(node_),
      wait);
  if (!to_peer_req.ok()) co_return to_peer_req.status();
  auto peer_to_my_req = co_await peer.ep_->ImportBuffer(
      node_, "am-req-" + std::to_string(node_) + "-" + std::to_string(peer.node_),
      wait);
  if (!peer_to_my_req.ok()) co_return peer_to_my_req.status();
  auto to_peer_reply = co_await ep_->ImportBuffer(
      peer.node_,
      "am-reply-" + std::to_string(peer.node_) + "-" + std::to_string(node_), wait);
  if (!to_peer_reply.ok()) co_return to_peer_reply.status();
  auto peer_to_my_reply = co_await peer.ep_->ImportBuffer(
      node_, "am-reply-" + std::to_string(node_) + "-" + std::to_string(peer.node_),
      wait);
  if (!peer_to_my_reply.ok()) co_return peer_to_my_reply.status();

  request_slots_[peer.node_] =
      SlotView{my_req.value(), to_peer_req.value().proxy_base};
  reply_slots_[peer.node_] =
      SlotView{my_reply.value(), to_peer_reply.value().proxy_base};
  peer.request_slots_[node_] =
      SlotView{peer_req.value(), peer_to_my_req.value().proxy_base};
  peer.reply_slots_[node_] =
      SlotView{peer_reply.value(), peer_to_my_reply.value().proxy_base};
  co_return OkStatus();
}

void AmEndpoint::RegisterRequestHandler(std::uint16_t id, RequestHandler handler) {
  handlers_[id] = std::move(handler);
}

sim::Task<Result<AmEndpoint::Payload>> AmEndpoint::Request(int dst_node,
                                                           std::uint16_t id,
                                                           const Payload& args) {
  auto req_it = request_slots_.find(dst_node);
  auto reply_it = reply_slots_.find(dst_node);
  if (req_it == request_slots_.end() || reply_it == reply_slots_.end()) {
    co_return Result<Payload>(FailedPrecondition("not connected to that node"));
  }
  sim::Simulator& sim = cluster_.simulator();
  const std::uint32_t seq = next_request_seq_++;

  std::vector<std::uint8_t> slot = EncodeSlot(seq, id, args);
  Status w = ep_->WriteBuffer(scratch_, slot);
  if (!w.ok()) co_return Result<Payload>(w);
  Status sent = co_await ep_->SendMsg(scratch_, req_it->second.remote, kSlotBytes);
  if (!sent.ok()) co_return Result<Payload>(sent);

  // Poll for the reply (AM's polling notification mode): the slot's
  // trailing seq word is the commit point, so watch just that word.
  const void* seq_word = ep_->memory().WordPtr(
      reply_it->second.local_va + 4 + kPayloadWords * 4);
  for (;;) {
    std::vector<std::uint8_t> bytes(kSlotBytes);
    Status r = ep_->ReadBuffer(reply_it->second.local_va, bytes);
    if (!r.ok()) co_return Result<Payload>(r);
    DecodedSlot decoded = DecodeSlot(bytes);
    if (decoded.seq == seq) co_return decoded.payload;
    co_await sim.WaitChange(seq_word, 300);
  }
}

sim::Process AmEndpoint::ServeLoop() {
  sim::Simulator& sim = cluster_.simulator();
  std::unordered_map<int, std::uint32_t> last_seq;
  while (serving_) {
    for (auto& [peer, view] : request_slots_) {
      std::vector<std::uint8_t> bytes(kSlotBytes);
      if (!ep_->ReadBuffer(view.local_va, bytes).ok()) continue;
      DecodedSlot decoded = DecodeSlot(bytes);
      if (decoded.seq == 0 || decoded.seq == last_seq[peer]) continue;
      last_seq[peer] = decoded.seq;
      ++requests_served_;

      Payload reply_payload{};
      auto it = handlers_.find(decoded.handler);
      if (it != handlers_.end()) {
        co_await sim.Delay(1500);  // handler dispatch
        reply_payload = it->second(decoded.payload);
      }
      std::vector<std::uint8_t> reply =
          EncodeSlot(decoded.seq, decoded.handler, reply_payload);
      Status w = ep_->WriteBuffer(scratch_, reply);
      if (!w.ok()) continue;
      (void)co_await ep_->SendMsg(scratch_, reply_slots_[peer].remote, kSlotBytes);
    }
    // vmmc-lint: allow(delay-spin): polls one request slot per peer, and a
    // wait can watch only one word; serving_ is not a slot word either
    co_await sim.Delay(500);
  }
}

}  // namespace vmmc::compat
