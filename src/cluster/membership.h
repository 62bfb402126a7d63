// Cluster-scale membership: per-machine health from periodic heartbeats.
//
// recover::MembershipService answers "which cores of this machine are live"
// by hooking the monitor collective; across machines there is no shared
// monitor, so liveness has to travel the same way everything else does —
// messages over the rack fabric. Each backend machine runs a heartbeat
// sender (RunHeartbeatSender) that periodically sends a small UDP datagram
// [id, incarnation, seq] to the balancer machine; ClusterMembership, living
// on the balancer, receives them and runs a timeout sweep. A backend that
// misses kHeartbeatTimeout worth of beats is declared dead in an
// epoch-numbered view change, and subscribers (the L4 steering tier) are
// notified in order.
//
// Incarnation fencing mirrors PR 5's replica respawn rule: once a backend is
// declared dead, beats carrying its old (or any lower) incarnation are
// dropped as stale — a partitioned-but-alive machine cannot flap the view.
// Sequence numbers fence duplicated/reordered datagrams within one
// incarnation.
//
// Unlike the intra-machine recovery machinery, the heartbeat path is always
// on (not gated on recover::Armed): it is ordinary cluster traffic, fully
// deterministic (Delay loops bounded by an explicit horizon; no
// WaitTimeout), and exercising the fabric in the golden path is the point.
#ifndef MK_CLUSTER_MEMBERSHIP_H_
#define MK_CLUSTER_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/machine.h"
#include "net/stack.h"
#include "recover/view.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::cluster {

// 16-byte wire format: id, incarnation (u32 LE), then seq (u64 LE).
std::vector<std::uint8_t> EncodeHeartbeat(std::uint32_t id,
                                          std::uint32_t incarnation,
                                          std::uint64_t seq);
bool DecodeHeartbeat(const std::vector<std::uint8_t>& payload, std::uint32_t* id,
                     std::uint32_t* incarnation, std::uint64_t* seq);

class ClusterMembership {
 public:
  // Every backend's RunHeartbeatSender beats this often.
  static constexpr sim::Cycles kHeartbeatPeriod = 100'000;
  // Declared dead after this long without an accepted beat.
  static constexpr sim::Cycles kHeartbeatTimeout = 400'000;
  // How often the sweep looks for backends past the timeout.
  static constexpr sim::Cycles kSweepPeriod = 100'000;

  struct Options {
    int backends = 0;
    std::uint16_t port = 7100;  // UDP port the receive loop binds
  };

  // Called once per committed view change, in subscription order, from the
  // sweep task (synchronous: steering-table updates are plain state). The
  // view's `live` is indexed by backend id.
  using Subscriber = std::function<void(const recover::View& view, int dead_backend)>;

  // `stack` is the balancer machine's management NetStack; both service loops
  // run on `machine`'s executor (the balancer domain).
  ClusterMembership(hw::Machine& machine, net::NetStack& stack, Options opts);
  ClusterMembership(const ClusterMembership&) = delete;
  ClusterMembership& operator=(const ClusterMembership&) = delete;

  void Subscribe(Subscriber fn) { subscribers_.push_back(std::move(fn)); }

  // Spawns the receive loop (parks on the UDP socket; runs for the whole
  // simulation) and the timeout sweep (bounded: exits at `horizon`). Call
  // before the engine runs; the service must outlive the run.
  void Start(sim::Cycles horizon);

  // Feeds one heartbeat observation; exposed so tests can drive fencing and
  // view changes without a network. `now` is the receipt time.
  void OnHeartbeat(std::uint32_t id, std::uint32_t incarnation, std::uint64_t seq,
                   sim::Cycles now);

  const recover::View& view() const { return view_; }
  std::uint64_t heartbeats_accepted() const { return accepted_; }
  std::uint64_t stale_dropped() const { return stale_dropped_; }
  std::uint64_t view_changes() const { return view_.epoch - 1; }

 private:
  struct Backend {
    std::uint32_t incarnation = 0;
    std::uint64_t last_seq = 0;
    sim::Cycles last_heard = 0;
    bool alive = true;
  };

  sim::Task<> RecvLoop();
  sim::Task<> SweepLoop(sim::Cycles horizon);

  hw::Machine& machine_;
  net::NetStack& stack_;
  Options opts_;
  recover::View view_;
  std::vector<Backend> backends_;
  std::vector<Subscriber> subscribers_;
  std::uint64_t accepted_ = 0;
  std::uint64_t stale_dropped_ = 0;
};

// Heartbeat source for one backend machine: every
// ClusterMembership::kHeartbeatPeriod cycles (until the simulated `horizon`)
// sends [id, incarnation, seq++] from `stack` to the membership service at
// `dst_ip`:`dst_port`. Checks hw::Machine::Halted on
// `core` each round, so a machine-scoped kill silences the machine's beats
// exactly as a real fail-stop would (and the halt spec records an
// activation). Spawn on the backend machine's executor.
sim::Task<> RunHeartbeatSender(hw::Machine& machine, int core,
                               net::NetStack& stack, int id,
                               std::uint32_t incarnation, net::Ipv4Addr dst_ip,
                               std::uint16_t dst_port, sim::Cycles horizon);

}  // namespace mk::cluster

#endif  // MK_CLUSTER_MEMBERSHIP_H_
