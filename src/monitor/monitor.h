// Monitors (section 4.4): the distinguished user-space processes that
// collectively coordinate system-wide state.
//
// One monitor runs on each core. Monitors exchange messages over a mesh of
// URPC channels (routes and channel placement are computed from the SKB at
// boot, as in section 5.1) and implement the agreement protocols that keep
// per-core replicas consistent:
//
//   * one-phase commit for order-insensitive operations — a TLB shootdown is
//     a single multicast round of invalidate + ack (section 5.1);
//   * two-phase commit for capability retype/revoke, which must be globally
//     ordered (section 4.7, Figure 8): prepare/vote, then commit or abort;
//   * capability transfer between cores (section 4.8), with the monitor
//     checking transferability and revocation status;
//   * waking blocked local dispatchers on behalf of remote senders.
//
// Four routing disciplines are supported (Figure 6): broadcast over one
// shared line, unicast, two-level multicast with one aggregation core per
// package, and NUMA-aware multicast with leader-local buffers and
// farthest-first send order.
#ifndef MK_MONITOR_MONITOR_H_
#define MK_MONITOR_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "caps/capability.h"
#include "hw/machine.h"
#include "kernel/cpu_driver.h"
#include "monitor/proto.h"
#include "recover/config.h"
#include "sim/event.h"
#include "sim/task.h"
#include "sim/types.h"
#include "skb/skb.h"
#include "urpc/channel.h"

namespace mk::monitor {

using sim::Cycles;
using sim::Task;

// Recovery timing (phase timeout, heartbeat period, 2PC retry budget) lives
// in recover::RecoveryConfig — see src/recover/config.h. Phase waits are
// bounded by recover::Bound, so they are unbounded unless recovery is armed.

class MonitorSystem;

class Monitor {
 public:
  Monitor(MonitorSystem& sys, int core);
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  int core() const { return core_; }
  caps::CapDb& caps() { return caps_; }

  // --- Initiator API (runs on this monitor's core) ---

  struct CollectiveResult {
    Cycles latency = 0;
    bool all_yes = true;
    bool retryable = false;  // some no-vote was a kConflict (lock contention)
    bool timed_out = false;  // a participant never answered within the phase timeout
  };

  // One-phase commit: propagate a TLB-range invalidation to every core and
  // wait for all acknowledgements. With `flags.skip_tlb`, measures the raw
  // messaging protocol only (Figure 6); with `flags.raw`, monitor demux
  // charges are skipped too.
  Task<CollectiveResult> GlobalInvalidate(std::uint64_t vaddr, std::uint32_t pages,
                                          Protocol proto, OpFlags flags,
                                          std::uint16_t ncores = 0);

  // Two-phase commit (Figure 8): prepare the capability operation on every
  // replica; if all vote yes, commit, else abort.
  //
  // The three ways out are distinct: a clean validation abort (a replica
  // voted no for a permanent reason — retrying cannot help, so we don't),
  // exhausting the retry budget on conflicts, or committing. `latency` is
  // end-to-end wall time including losing attempts; `backoff` is the portion
  // spent sleeping between attempts, so callers measuring protocol cost can
  // subtract it.
  enum class TwoPcOutcome : std::uint8_t {
    kCommitted,
    kAborted,           // permanent validation failure; no retries wasted
    kRetriesExhausted,  // kMaxAttempts conflict rounds, never won the lock
  };
  struct TwoPcResult {
    bool committed = false;
    Cycles latency = 0;
    TwoPcOutcome outcome = TwoPcOutcome::kAborted;
    int attempts = 0;
    Cycles backoff = 0;  // cycles slept between losing attempts
  };
  Task<TwoPcResult> GlobalRetype(caps::CapId target, caps::CapType new_type,
                                 std::uint64_t child_bytes, std::uint32_t count,
                                 Protocol proto, OpFlags flags = {},
                                 std::uint16_t ncores = 0);
  Task<TwoPcResult> GlobalRevoke(caps::CapId target, Protocol proto, OpFlags flags = {});

  // Cross-core capability transfer (section 4.8): checks the type is
  // transferable and the capability is not pending revocation, then installs
  // a copy in the destination core's replica.
  Task<caps::CapErr> SendCap(int dest_core, caps::CapId id);

  // The monitor message loop; spawned by MonitorSystem::Boot.
  Task<> Loop();

  // Runs a raw collective with a caller-built message (tests and the
  // figure-6 bench compose OpMsg directly).
  Task<CollectiveResult> RunCollectiveForTest(OpMsg msg) { return RunCollective(msg); }

  // Services built on the monitors (e.g. the replicated file system) register
  // a handler for OpKind::kCustom operations; the handler's return value is
  // the replica's vote. The op_id identifies the operation's payload in the
  // service's own (charged) transfer buffers.
  using CustomHandler = std::function<Task<bool>(const OpMsg&)>;
  void SetCustomHandler(CustomHandler handler) { custom_ = std::move(handler); }

  // Allocates a fresh op id for an initiator-composed message.
  std::uint64_t NewOpId() {
    return (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  }

  // Statistics.
  std::uint64_t messages_handled() const { return messages_handled_; }

  // In-flight aggregation/initiator states (invariant checks: a quiesced run
  // must leave none behind).
  std::size_t inflight_ops() const { return ops_.size(); }

 private:
  friend class MonitorSystem;

  struct OpState {
    int pending = 0;
    bool vote = true;
    bool retryable = false;
    int parent = -1;           // core to ack when the subtree completes (-1: initiator)
    bool raw = false;
    sim::Event* done = nullptr;  // initiator completion
  };

  // A replica's local verdict on an operation: the vote, and whether a no
  // was for a transient reason (lock conflict) that a retry may resolve.
  struct ApplyResult {
    bool vote = true;
    bool retryable = false;
  };

  Task<> Dispatch(const urpc::Message& msg, int from);
  Task<> HandleOp(OpMsg msg, int from);
  Task<> HandleAck(AckMsg ack);
  // Applies the op locally (TLB invalidate / cap prepare / commit / abort).
  Task<ApplyResult> ApplyAction(const OpMsg& msg);
  // Children this monitor must forward to for the op's route (empty unless
  // this core is the aggregation leader of its package).
  std::vector<int> ChildrenFor(const OpMsg& msg) const;
  Task<> SendAck(int to, std::uint64_t op_id, bool vote, bool retryable, bool raw);
  Task<CollectiveResult> RunCollective(OpMsg msg);
  Task<TwoPcResult> TwoPhase(OpMsg msg);
  caps::CapDb::PreparedOp ToCapOp(const OpMsg& msg) const;

  MonitorSystem& sys_;
  int core_;
  caps::CapDb caps_;
  std::map<std::uint64_t, OpState> ops_;
  std::map<std::uint64_t, std::vector<caps::CapId>> committed_children_;
  CustomHandler custom_;
  sim::Event work_;
  std::uint64_t next_op_ = 1;
  std::uint64_t messages_handled_ = 0;
  std::map<int, std::uint64_t> bcast_seen_;
  bool halt_traced_ = false;  // kFaultCoreHalt emitted once per halt
};

// Boots and owns the monitors, their channel mesh, routes, and the broadcast
// groups. Also owns the per-core root capabilities.
class MonitorSystem {
 public:
  MonitorSystem(hw::Machine& machine, skb::Skb& skb,
                std::vector<std::unique_ptr<kernel::CpuDriver>>& drivers);
  ~MonitorSystem();

  // Creates channels and routes and spawns every monitor's loop. The SKB
  // must already be populated (and ideally measured).
  void Boot();

  // Stops all monitor loops (benches call this when done; the executor then
  // drains).
  void Shutdown();

  Monitor& on(int core) { return *monitors_[static_cast<std::size_t>(core)]; }
  hw::Machine& machine() { return machine_; }
  skb::Skb& skb() { return skb_; }
  kernel::CpuDriver& driver(int core) { return *drivers_[static_cast<std::size_t>(core)]; }
  int num_cores() const { return machine_.num_cores(); }
  bool running() const { return running_; }

  // Installs the same root RAM capability in every replica and returns its id
  // (identical across replicas by construction).
  caps::CapId InstallRootCap(std::uint64_t base, std::uint64_t bytes);

  // Replica consistency check: true if all per-core capability databases have
  // the same digest.
  bool ReplicasConsistent() const;

  // Like ReplicasConsistent, but only over online cores: after a fail-stop
  // halt, the dead replica may legitimately lag (e.g. a prepare it never
  // aborted), and agreement is required among the survivors only.
  bool LiveReplicasConsistent() const;

  // --- Failure detection and recovery ---
  //
  // A fail-stop core is detected either by a 2PC phase timeout at the
  // initiator or by the heartbeat sweep; detection marks it offline (routes
  // and collectives exclude it, its monitor parks) and failed. The phase
  // timeout and the heartbeat exist only while recover::Armed(), so plain
  // runs schedule no extra events.

  // True if `core` was taken out of the view by failure (as opposed to a
  // clean OfflineCore power-down).
  bool CoreFailed(int core) const { return failed_[static_cast<std::size_t>(core)]; }

  // Excludes every online core that hw::Machine::Halted reports from the
  // view. Returns how many cores were excluded by this call.
  int ExcludeHaltedCores();

  // Called once per newly excluded core, after it is marked offline+failed,
  // in exclusion order. mk::recover's MembershipService subscribes here to
  // drive a membership view change; the hook must not block (it may spawn).
  using ExclusionHook = std::function<void(int dead_core)>;
  void SetExclusionHook(ExclusionHook hook) { exclusion_hook_ = std::move(hook); }

  // Periodic ExcludeHaltedCores sweep; spawned by Boot when recovery is
  // armed, so participants that are *not* initiating 2PC also learn of dead
  // peers.
  Task<> HeartbeatLoop();

  const skb::MulticastRoute& RouteFor(int source, bool numa_aware);

  // --- Core hotplug / power management (sections 3.3 and 4.4) ---
  //
  // Replication makes changes to the running core set a distributed-systems
  // problem the monitors already know how to solve: taking a core offline is
  // an agreement round announcing the new view (after which collectives and
  // multicast routes exclude it and its monitor parks); bringing it back is a
  // state transfer of the capability replica from a live peer followed by an
  // announcement round.

  bool IsOnline(int core) const { return online_[static_cast<std::size_t>(core)]; }
  int OnlineCount() const;

  // Takes `core` out of the running set; initiated by `initiator`'s monitor.
  // No-op if already offline. The initiator itself cannot be taken offline.
  Task<bool> OfflineCore(int initiator, int core);

  // Brings `core` back: replica catch-up from the initiator (charged
  // proportionally to the replica size), then a view-change round.
  Task<bool> OnlineCore(int initiator, int core);

  // Multicast route with offline cores removed and dead leaders replaced by
  // their first online member.
  skb::MulticastRoute EffectiveRoute(int source, bool numa_aware);

 private:
  friend class Monitor;

  // Channel between monitor cores; created lazily, registered with the
  // receiver. `numa_node` < 0 means the default (sender-local) placement.
  urpc::Channel& GetChannel(int from, int to, int numa_node);

  struct BroadcastGroup {
    sim::Addr line = 0;
    std::uint64_t seq = 0;
    OpMsg current;  // host-side copy of the published message
  };
  BroadcastGroup& GetBroadcastGroup(int source);

  hw::Machine& machine_;
  skb::Skb& skb_;
  std::vector<std::unique_ptr<kernel::CpuDriver>>& drivers_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  // Channels in creation order. channel_at_ indexes them by (from, to,
  // numa_node + 1), with numa_node in [-1, packages); in_channels_[to] lists
  // a receiver's channels with their senders, in creation order.
  std::vector<std::unique_ptr<urpc::Channel>> channels_;
  std::vector<urpc::Channel*> channel_at_;
  std::vector<std::vector<std::pair<int, urpc::Channel*>>> in_channels_;
  std::map<int, BroadcastGroup> bcast_;
  std::map<std::pair<int, bool>, skb::MulticastRoute> routes_;
  std::vector<bool> online_;
  std::vector<bool> failed_;
  ExclusionHook exclusion_hook_;
  bool running_ = false;
};

}  // namespace mk::monitor

#endif  // MK_MONITOR_MONITOR_H_
