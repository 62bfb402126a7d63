// URPC: user-level RPC over shared-memory cache lines (section 4.6).
//
// A channel is a region of (simulated) shared memory used to transfer
// cache-line-sized messages point-to-point between a single writer core and a
// single reader core. The implementation reproduces the paper's fast path:
// the sender writes the message into a 64-byte line (invalidating the
// receiver's copy — one interconnect round trip); the receiver polls the line
// and re-fetches it on its next poll (the second round trip). Pipelined sends
// retire through the store buffer; receivers may enable the stride-prefetch
// optimization at channel-setup time for throughput-oriented workloads.
//
// Receiving is by polling. A receiver unwilling to spin forever polls for a
// bounded window and then blocks, registering with its local CPU driver; the
// sender observes the receiver-blocked flag and posts a wake-up IPI, costing
// the paper's constant C on the receive side (section 5.2).
#ifndef MK_URPC_CHANNEL_H_
#define MK_URPC_CHANNEL_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <type_traits>

#include "hw/machine.h"
#include "kernel/cpu_driver.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::urpc {

using sim::Addr;
using sim::Cycles;
using sim::Task;

// One cache-line message: 56 payload bytes plus a header word (tag/sequence).
struct Message {
  static constexpr std::size_t kPayloadBytes = 56;
  std::uint64_t tag = 0;
  std::uint32_t len = 0;
  std::array<std::byte, kPayloadBytes> bytes{};
};

// Packs a trivially-copyable value into a message payload.
template <typename T>
Message Pack(std::uint64_t tag, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "URPC payloads must be trivially copyable");
  static_assert(sizeof(T) <= Message::kPayloadBytes, "URPC payload exceeds one cache line");
  Message m;
  m.tag = tag;
  m.len = sizeof(T);
  std::memcpy(m.bytes.data(), &value, sizeof(T));
  return m;
}

template <typename T>
T Unpack(const Message& m) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= Message::kPayloadBytes);
  T value;
  std::memcpy(&value, m.bytes.data(), sizeof(T));
  return value;
}

// Channel construction options.
struct ChannelOptions {
  int slots = 16;         // ring size == flow-control window (paper's queue)
  bool prefetch = false;  // receiver uses prefetched poll reads (setup-time opt)
  int numa_node = -1;     // home node of the buffer; -1 = sender's package
};

class Channel {
 public:

  Channel(hw::Machine& machine, int sender_core, int receiver_core,
          ChannelOptions opts = ChannelOptions());
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  int sender_core() const { return sender_; }
  int receiver_core() const { return receiver_; }
  const ChannelOptions& options() const { return opts_; }

  // --- Sender side ---

  // Synchronous send: completes once the slot line's ownership has moved to
  // the sender (full invalidation round trip). Lowest latency signal.
  Task<> Send(Message msg);

  // Pipelined send: the store retires through the store buffer and the
  // sender continues; used for batched/streamed messaging.
  Task<> SendPosted(Message msg);

  // --- Receiver side ---

  // Polls until a message is available (the line stays cached until the
  // sender invalidates it, so waiting itself is free; the re-fetch on arrival
  // is charged). Spins forever: use RecvBlocking for the poll-then-block
  // discipline.
  Task<Message> Recv();

  // Polls for `poll_window` cycles, then blocks via the local CPU driver and
  // is woken by the sender's IPI (costing trap + context switch on this
  // core). Drivers are those of the receiver and sender cores. Returns
  // nullopt if no message arrives within `timeout` cycles of blocking: the
  // recovery path for receivers whose sender may have fail-stop halted. The
  // registration is cancelled on timeout so no blocked-waiter entry leaks.
  // A timeout of sim::kForever blocks until a message arrives and schedules
  // no timer.
  Task<std::optional<Message>> RecvTimeout(kernel::CpuDriver& local,
                                           kernel::CpuDriver& sender_driver,
                                           Cycles poll_window, Cycles timeout);

  // RecvTimeout with no bound on the blocked wait.
  Task<Message> RecvBlocking(kernel::CpuDriver& local, kernel::CpuDriver& sender_driver,
                             Cycles poll_window);

  // Non-blocking: if a message is pending, receives it (charging the fetch)
  // and returns true.
  Task<bool> TryRecv(Message* out);

  // Zero-cost peek used by select loops; the paid fetch happens in TryRecv.
  bool HasMessage() const { return !queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  // Signaled on every message arrival; monitors subscribe their select loops.
  sim::Event& readable() { return readable_; }

  // Invoked (zero-cost) on every message arrival; used by monitor select
  // loops to consolidate many channels into one wake-up signal.
  void SetDataHook(std::function<void()> hook) { on_data_ = std::move(hook); }

  // Messages the sender may still write before the window fills.
  int SendCredits() const;

 private:
  Task<> SendCommon(Message msg, bool posted);
  Task<> WaitForCredit();
  Task<Message> Consume();
  Addr SlotAddr(std::uint64_t seq) const {
    return base_ + (seq % static_cast<std::uint64_t>(opts_.slots)) * sim::kCacheLineBytes;
  }
  // Trace flow id of the message with sequence number `seq` on this channel.
  // The channel is a FIFO, so both endpoints derive the same id from their
  // own sequence counters — no id travels in the message.
  std::uint64_t FlowId(std::uint64_t seq) const {
    return trace::kFlowUrpc | (serial_ << 24) | (seq & 0xffffff);
  }

  hw::Machine& machine_;
  int sender_;
  int receiver_;
  ChannelOptions opts_;
  std::uint64_t serial_;  // process-unique id; namespaces trace flow ids
  Addr base_ = 0;          // ring of `slots` lines
  Addr ack_addr_ = 0;      // receiver -> sender consumption counter
  Addr blocked_addr_ = 0;  // receiver-blocked flag
  std::deque<Message> queue_;
  std::uint64_t seq_sent_ = 0;
  std::uint64_t seq_received_ = 0;
  std::uint64_t acked_ = 0;        // receiver's last published consumption count
  std::uint64_t sender_seen_ack_ = 0;
  bool receiver_blocked_ = false;
  kernel::CpuDriver::WakeToken wake_token_ = 0;
  kernel::CpuDriver* receiver_driver_ = nullptr;
  kernel::CpuDriver* sender_driver_ = nullptr;
  sim::Event readable_;
  sim::Event credit_;
  std::function<void()> on_data_;
};

}  // namespace mk::urpc

#endif  // MK_URPC_CHANNEL_H_
