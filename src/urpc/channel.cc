#include "urpc/channel.h"

#include <stdexcept>

namespace mk::urpc {

// Channel serial numbers namespace trace flow ids: the sender's and
// receiver's records for one message share the flow (serial, sequence). The
// serial comes from the owning machine — never a process-wide counter, which
// would make one domain's flow ids depend on what other domains construct
// (and race under the parallel engine). It advances on every construction,
// traced or not, so tracing cannot perturb a run.
Channel::Channel(hw::Machine& machine, int sender_core, int receiver_core,
                 ChannelOptions opts)
    : machine_(machine), sender_(sender_core), receiver_(receiver_core), opts_(opts),
      serial_(machine.NextChannelSerial()),
      readable_(machine.exec()), credit_(machine.exec()) {
  if (opts_.slots < 1) {
    throw std::invalid_argument("Channel: need at least one slot");
  }
  int node = opts_.numa_node >= 0 ? opts_.numa_node : machine_.topo().PackageOf(sender_);
  base_ = machine_.mem().AllocLines(node, static_cast<std::uint64_t>(opts_.slots));
  ack_addr_ = machine_.mem().AllocLines(node, 1);
  blocked_addr_ = machine_.mem().AllocLines(node, 1);
}

int Channel::SendCredits() const {
  return opts_.slots - static_cast<int>(seq_sent_ - sender_seen_ack_);
}

Task<> Channel::WaitForCredit() {
  while (SendCredits() <= 0) {
    // The window is full: re-read the ack line (the receiver publishes its
    // consumption counter there; its write invalidated our copy).
    co_await machine_.mem().Read(sender_, ack_addr_);
    sender_seen_ack_ = acked_;
    if (SendCredits() > 0) {
      break;
    }
    co_await credit_.Wait();
  }
}

Task<> Channel::SendCommon(Message msg, bool posted) {
  const Cycles start = machine_.exec().now();
  co_await WaitForCredit();
  Addr slot = SlotAddr(seq_sent_);
  if (posted) {
    co_await machine_.mem().WritePosted(sender_, slot);
  } else {
    co_await machine_.mem().Write(sender_, slot);
  }
  const std::uint64_t flow = FlowId(seq_sent_);
  ++seq_sent_;
  queue_.push_back(msg);
  trace::EmitSpan<trace::Category::kUrpc>(trace::EventId::kUrpcSend, start,
                                          machine_.exec().now(), sender_, msg.tag, flow,
                                          trace::Phase::kSpanFlowOut);
  readable_.Signal();
  if (on_data_) {
    on_data_();
  }
  // Check the receiver-blocked flag (normally a cached read) and post a
  // wake-up IPI if the receiver went to sleep.
  co_await machine_.mem().Read(sender_, blocked_addr_);
  if (receiver_blocked_ && sender_driver_ != nullptr && receiver_driver_ != nullptr) {
    receiver_blocked_ = false;
    trace::Emit<trace::Category::kUrpc>(trace::EventId::kUrpcWake, machine_.exec().now(),
                                        sender_, static_cast<std::uint64_t>(receiver_));
    co_await sender_driver_->SendWakeupIpi(*receiver_driver_, wake_token_);
  }
}

// Return the inner task directly instead of wrapping it in another
// coroutine: one fewer frame allocation per message on the send fast path.
Task<> Channel::Send(Message msg) { return SendCommon(msg, /*posted=*/false); }

Task<> Channel::SendPosted(Message msg) { return SendCommon(msg, /*posted=*/true); }

Task<Message> Channel::Consume() {
  const Cycles start = machine_.exec().now();
  // Claim the message before any suspension so a second consumer resuming
  // from its own charged read cannot double-pop (the channel is logically
  // single-reader, but select loops may race a Recv with a TryRecv).
  Message msg = queue_.front();
  queue_.pop_front();
  Addr slot = SlotAddr(seq_received_);
  const std::uint64_t flow = FlowId(seq_received_);
  ++seq_received_;
  // Fetch the slot line the sender just wrote (the second round trip of the
  // fast path).
  if (opts_.prefetch) {
    co_await machine_.mem().ReadPrefetched(receiver_, slot);
  } else {
    co_await machine_.mem().Read(receiver_, slot);
  }
  // Publish consumption lazily: one posted ack write per half-window keeps
  // the reverse traffic off the fast path.
  std::uint64_t window = static_cast<std::uint64_t>(opts_.slots);
  if (seq_received_ - acked_ >= (window + 1) / 2) {
    acked_ = seq_received_;
    co_await machine_.mem().WritePosted(receiver_, ack_addr_);
    credit_.Signal();
  }
  trace::EmitSpan<trace::Category::kUrpc>(trace::EventId::kUrpcRecv, start,
                                          machine_.exec().now(), receiver_, msg.tag, flow,
                                          trace::Phase::kSpanFlowIn);
  co_return msg;
}

Task<Message> Channel::Recv() {
  while (queue_.empty()) {
    co_await readable_.Wait();
  }
  co_return co_await Consume();
}

Task<bool> Channel::TryRecv(Message* out) {
  if (queue_.empty()) {
    co_return false;
  }
  *out = co_await Consume();
  co_return true;
}

Task<Message> Channel::RecvBlocking(kernel::CpuDriver& local, kernel::CpuDriver& sender_driver,
                                    Cycles poll_window) {
  co_return *co_await RecvTimeout(local, sender_driver, poll_window, sim::kForever);
}

Task<std::optional<Message>> Channel::RecvTimeout(kernel::CpuDriver& local,
                                                  kernel::CpuDriver& sender_driver,
                                                  Cycles poll_window, Cycles timeout) {
  receiver_driver_ = &local;
  sender_driver_ = &sender_driver;
  if (queue_.empty()) {
    bool arrived = false;
    if (poll_window > 0) {
      arrived = co_await readable_.WaitTimeout(poll_window);
    }
    if (!arrived && queue_.empty()) {
      // Block: publish the blocked flag (posted store to the flag line, which
      // the sender polls cheaply), register for wake-up, and sleep.
      sim::Event wake(machine_.exec());
      wake_token_ = local.RegisterBlocked(&wake);
      receiver_blocked_ = true;
      co_await machine_.mem().WritePosted(receiver_, blocked_addr_);
      if (queue_.empty()) {  // re-check: a message may have landed meanwhile
        trace::Emit<trace::Category::kUrpc>(trace::EventId::kUrpcBlock,
                                            machine_.exec().now(), receiver_);
        bool woken = co_await wake.WaitTimeout(timeout);
        if (!woken) {
          // Timed out: deregister before `wake` dies with this frame so a
          // late wake-up IPI finds no registration instead of a dangling
          // event pointer.
          local.CancelBlocked(wake_token_);
          wake_token_ = 0;
          receiver_blocked_ = false;
          if (queue_.empty()) {
            co_return std::nullopt;
          }
        }
      } else {
        // The message landed between RegisterBlocked and the posted flag
        // write. Cancel the registration and invalidate the published token:
        // a sender that already sampled the blocked flag may still post a
        // wake-up IPI, and it must carry a token that maps to nothing rather
        // than a token a future blocker could be reissued. (Wake-up IPIs
        // carry their token in the payload for the same reason: tokens
        // matched FIFO against arrival order could wake the wrong task when
        // senders sit at different hop distances.)
        local.CancelBlocked(wake_token_);
        wake_token_ = 0;
      }
      receiver_blocked_ = false;
    }
  }
  while (queue_.empty()) {
    // Spurious wake-up guard, still bounded: the sender may have died after
    // waking us but before writing the message.
    bool ok = co_await readable_.WaitTimeout(timeout);
    if (!ok && queue_.empty()) {
      co_return std::nullopt;
    }
  }
  co_return co_await Consume();
}

}  // namespace mk::urpc
