// The comparison system for Table 4: an in-kernel network stack with packet
// queues in shared data structures, as in Linux/Windows loopback.
//
// Loopback between two processes crosses the kernel twice and synchronizes
// through shared memory: each send is a system call that takes the queue
// lock, copies the payload into a kernel buffer, and updates shared queue
// state; each receive is a system call that takes the same lock, reads the
// buffer, and copies out. The lock line, queue metadata, and kernel buffers
// all ping-pong between the two cores' caches — the extra coherence traffic
// and D-cache misses the paper measures.
#ifndef MK_BASELINE_SHARED_NETSTACK_H_
#define MK_BASELINE_SHARED_NETSTACK_H_

#include <cstdint>
#include <deque>

#include "hw/machine.h"
#include "net/wire.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::baseline {

using sim::Cycles;
using sim::Task;

class SharedKernelLoopback {
 public:
  explicit SharedKernelLoopback(hw::Machine& machine, int node = 0);

  // Sender side: syscall, lock, copy into the kernel buffer, enqueue.
  Task<> Send(int core, net::Packet packet);

  // Receiver side: syscall, lock, dequeue, copy out. Blocks until data.
  Task<net::Packet> Recv(int core);

  std::size_t queued() const { return queue_.size(); }

 private:
  Task<> LockQueue(int core);
  Task<> UnlockQueue(int core);

  hw::Machine& machine_;
  sim::Addr lock_line_;
  sim::Addr meta_line_;      // head/tail indices
  sim::Addr skb_meta_line_;  // sk_buff freelist/accounting
  sim::Addr sock_line_;      // socket state + stats
  sim::Addr buffer_region_;  // kernel sk_buff data
  bool locked_ = false;
  sim::Event lock_free_;
  sim::Event data_ready_;
  std::deque<net::Packet> queue_;
  std::uint64_t slot_ = 0;
  std::uint64_t pop_slot_ = 0;
  static constexpr int kSlots = 64;
  static constexpr std::uint64_t kSlotBytes = 2048;
};

}  // namespace mk::baseline

#endif  // MK_BASELINE_SHARED_NETSTACK_H_
