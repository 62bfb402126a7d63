#include "baseline/shared_netstack.h"

#include "net/stack.h"

namespace mk::baseline {
namespace {

// The same protocol work as the user-space stack (net::StackCosts' defaults).
constexpr Cycles kStackIn = net::StackCosts{}.per_packet_in;
constexpr Cycles kStackOut = net::StackCosts{}.per_packet_out;
constexpr Cycles kSkbAlloc = 450;     // kernel buffer management per packet
constexpr double kPerByteCopy = 0.5;  // each user<->kernel copy, per byte

}  // namespace

SharedKernelLoopback::SharedKernelLoopback(hw::Machine& machine, int node)
    : machine_(machine), lock_free_(machine.exec()), data_ready_(machine.exec()) {
  lock_line_ = machine_.mem().AllocLines(node, 1);
  meta_line_ = machine_.mem().AllocLines(node, 1);
  skb_meta_line_ = machine_.mem().AllocLines(node, 1);
  sock_line_ = machine_.mem().AllocLines(node, 1);
  buffer_region_ =
      machine_.mem().AllocLines(node, kSlots * kSlotBytes / sim::kCacheLineBytes);
}

Task<> SharedKernelLoopback::LockQueue(int core) {
  while (true) {
    co_await machine_.mem().Write(core, lock_line_);  // test-and-set
    if (!locked_) {
      locked_ = true;
      co_return;
    }
    co_await lock_free_.Wait();
  }
}

Task<> SharedKernelLoopback::UnlockQueue(int core) {
  locked_ = false;
  co_await machine_.mem().Write(core, lock_line_);
  lock_free_.SignalOne();
}

Task<> SharedKernelLoopback::Send(int core, net::Packet packet) {
  // Trap into the kernel, run the protocol stack, allocate an skb.
  co_await machine_.Syscall(core);
  co_await machine_.Compute(
      core, kStackOut + kSkbAlloc +
                static_cast<Cycles>(static_cast<double>(packet.size()) * kPerByteCopy));
  co_await LockQueue(core);
  // skb allocation touches the shared freelist; socket accounting too.
  co_await machine_.mem().Write(core, skb_meta_line_);
  co_await machine_.mem().Write(core, sock_line_);
  // Copy the payload into the shared kernel buffer and bump the queue state.
  std::uint64_t slot = slot_++ % kSlots;
  co_await machine_.mem().Write(core, buffer_region_ + slot * kSlotBytes, packet.size());
  co_await machine_.mem().Write(core, meta_line_);
  queue_.push_back(std::move(packet));
  co_await UnlockQueue(core);
  data_ready_.Signal();
}

Task<net::Packet> SharedKernelLoopback::Recv(int core) {
  co_await machine_.Syscall(core);
  while (true) {
    co_await LockQueue(core);
    co_await machine_.mem().Read(core, meta_line_);
    if (!queue_.empty()) {
      break;
    }
    co_await UnlockQueue(core);
    co_await data_ready_.Wait();
  }
  net::Packet packet = std::move(queue_.front());
  queue_.pop_front();
  // skb free + socket accounting on the consumer side.
  co_await machine_.mem().Write(core, skb_meta_line_);
  co_await machine_.mem().Write(core, sock_line_);
  std::uint64_t slot = pop_slot_++ % kSlots;
  // Read the kernel buffer and copy out to user space.
  co_await machine_.mem().Read(core, buffer_region_ + slot * kSlotBytes, packet.size());
  co_await machine_.mem().Write(core, meta_line_);
  co_await UnlockQueue(core);
  co_await machine_.Compute(
      core, kStackIn + static_cast<Cycles>(static_cast<double>(packet.size()) *
                                           kPerByteCopy));
  co_return packet;
}

}  // namespace mk::baseline
