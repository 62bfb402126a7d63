// PacketChannel: packet transfer between user-space domains over URPC
// (section 5.2, "IP loopback"): a descriptor travels as a cache-line URPC
// message, the payload through a dedicated shared buffer ring. No other
// memory is shared, which is exactly why the multikernel loopback beats the
// in-kernel shared-queue design of Table 4.
#ifndef MK_NET_PACKET_CHANNEL_H_
#define MK_NET_PACKET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "hw/machine.h"
#include "net/wire.h"
#include "sim/task.h"
#include "sim/types.h"
#include "urpc/channel.h"

namespace mk::net {

using sim::Cycles;
using sim::Task;

class PacketChannel {
 public:
  // 32 descriptor and payload slots, both on the sender's package.
  PacketChannel(hw::Machine& machine, int sender_core, int receiver_core);

  // Sends a packet: payload lines retire through the sender's store buffer,
  // the descriptor goes as a (flow-controlled) URPC message.
  Task<> Send(Packet packet);

  // Receives the next packet, charging the descriptor fetch and the payload
  // line reads.
  Task<Packet> Recv();

  // Recv with a bound on the wait: returns nullopt if no packet arrives
  // within `timeout` cycles. This is the recovery path for receivers whose
  // sender may have fail-stop halted (DB replica failover); it schedules a
  // timer event, so callers gate it on fault::Injector::active().
  Task<std::optional<Packet>> RecvTimeout(Cycles timeout);

  bool HasPacket() const { return descr_.HasMessage(); }
  sim::Event& readable() { return descr_.readable(); }
  int sender_core() const { return descr_.sender_core(); }
  int receiver_core() const { return descr_.receiver_core(); }

 private:
  struct Descriptor {
    std::uint32_t slot = 0;
    std::uint32_t len = 0;
  };

  hw::Machine& machine_;
  urpc::Channel descr_;
  sim::Addr payload_region_;
  std::deque<Packet> payloads_;  // host-side packet bytes, FIFO with descr_
  std::uint32_t send_slot_ = 0;
  std::uint32_t recv_slot_ = 0;
};

inline constexpr std::uint64_t kPacketSlotBytes = 2048;

}  // namespace mk::net

#endif  // MK_NET_PACKET_CHANNEL_H_
