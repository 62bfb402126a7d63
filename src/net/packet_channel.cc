#include "net/packet_channel.h"

namespace mk::net {
namespace {

constexpr int kSlots = 32;

urpc::ChannelOptions DescrOptions() {
  urpc::ChannelOptions c;
  c.slots = kSlots;
  c.prefetch = true;
  return c;
}

}  // namespace

PacketChannel::PacketChannel(hw::Machine& machine, int sender_core, int receiver_core)
    : machine_(machine), descr_(machine, sender_core, receiver_core, DescrOptions()) {
  payload_region_ = machine_.mem().AllocLines(
      machine_.topo().PackageOf(sender_core),
      static_cast<std::uint64_t>(kSlots) * kPacketSlotBytes / sim::kCacheLineBytes);
}

Task<> PacketChannel::Send(Packet packet) {
  Descriptor d;
  d.slot = send_slot_++ % static_cast<std::uint32_t>(kSlots);
  d.len = static_cast<std::uint32_t>(packet.size());
  // Payload first (posted stores), then the descriptor message; the channel's
  // flow control also gates payload-slot reuse (slots match).
  co_await machine_.mem().WritePosted(
      descr_.sender_core(), payload_region_ + d.slot * kPacketSlotBytes, packet.size());
  payloads_.push_back(std::move(packet));
  co_await descr_.Send(urpc::Pack(1, d));
}

Task<std::optional<Packet>> PacketChannel::RecvTimeout(Cycles timeout) {
  const Cycles deadline = machine_.exec().now() + timeout;
  while (!HasPacket()) {
    Cycles now = machine_.exec().now();
    if (now >= deadline || !co_await descr_.readable().WaitTimeout(deadline - now)) {
      if (!HasPacket()) {  // arrival may have raced the timer
        co_return std::nullopt;
      }
    }
  }
  co_return co_await Recv();
}

Task<Packet> PacketChannel::Recv() {
  urpc::Message msg = co_await descr_.Recv();
  auto d = urpc::Unpack<Descriptor>(msg);
  // Claim the payload before the charged read suspends (see Channel::Consume).
  Packet packet = std::move(payloads_.front());
  payloads_.pop_front();
  co_await machine_.mem().Read(descr_.receiver_core(),
                               payload_region_ + d.slot * kPacketSlotBytes, d.len);
  co_return packet;
}

}  // namespace mk::net
