// ClusterTopology: composes N hw::Machine instances into a rack.
//
// One ParallelEngine domain per machine — the multikernel argument applied
// across the rack. The fixed layout:
//
//   domain 0            top-of-rack switch (DcFabric's store-and-forward
//                       cores), an Amd4x4: each port runs kSwitchPortQueues
//                       forwarding loops (kUplinkPortQueues on the client
//                       and balancer ports), cores assigned round-robin in
//                       port order
//   domain 1            client machine (Amd4x4): the load-generator NIC
//                       (multi-queue, uplink rate) — client stacks and
//                       drivers are the caller's
//   domain 2            balancer machine (Amd4x4): L4Balancer drive cores
//                       (0..7), the management NetStack (core 8) feeding
//                       ClusterMembership
//   domain 3..3+N-1     backend machines: a multi-queue serving NIC (one
//                       RSS queue per shard, IRQs to the shard web cores
//                       4*i) plus a management stack (core 1) sourcing
//                       heartbeats
//
// All NICs are wired to switch ports; the port wire latency (kPortLatency)
// is the engine's conservative lookahead. The link rates and port queue
// counts are fixed constants in topology.cc; the switch's forwarding cost
// is DcFabric's, and the heartbeat timing ClusterMembership's. "Machine" in
// fault plans (FaultSpec::machine, HaltMachine) is exactly the engine domain
// id, so killing backend b means
// HaltMachine(ClusterTopology::BackendDomain(b), at).
//
// Addressing: clients reach the service at the VIP, ARP-resolved to the
// balancer MAC; backend shard stacks all bind the VIP and their machine's
// MAC (the stack demuxes by destination IP only, so shards share both), and
// answer clients directly — direct server return, the reply path never
// crosses the balancer.
#ifndef MK_CLUSTER_TOPOLOGY_H_
#define MK_CLUSTER_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/balancer.h"
#include "cluster/fabric.h"
#include "cluster/membership.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/parallel.h"
#include "sim/types.h"

namespace mk::cluster {

class ClusterTopology {
 public:
  struct Options {
    int backends = 4;
    int shards_per_backend = 8;  // serving NIC queues; shard i on core 4*i
    int threads = 1;             // host threads for the engine
    hw::PlatformSpec backend_spec = hw::Amd8x4();
  };

  static constexpr int kSwitchDomain = 0;
  static constexpr int kClientDomain = 1;
  static constexpr int kBalancerDomain = 2;
  static constexpr int BackendDomain(int b) { return 3 + b; }

  static constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 100);
  static constexpr net::Ipv4Addr kBalancerIp = net::MakeIp(10, 0, 0, 2);
  static constexpr net::Ipv4Addr kVip = net::MakeIp(10, 0, 1, 1);
  static net::Ipv4Addr BackendMgmtIp(int b) { return net::MakeIp(10, 0, 2, 1 + b); }
  static net::MacAddr ClientMac() { return {2, 0, 0, 0, 0, 1}; }
  static net::MacAddr BalancerMac() { return {2, 0, 0, 0, 0, 2}; }
  static net::MacAddr BackendMac(int b) {
    return {2, 0, 0, 0, 1, static_cast<std::uint8_t>(1 + b)};
  }

  // Backend management stacks live on this core (off the 4*i shard cores).
  static constexpr int kBackendMgmtCore = 1;
  static constexpr int kBalancerQueues = 8;   // drive loops on cores 0..7
  static constexpr int kBalancerMgmtCore = kBalancerQueues;
  static constexpr int kClientNicQueues = 8;  // RX driven on cores 0..7

  explicit ClusterTopology(Options opts);
  ClusterTopology(const ClusterTopology&) = delete;
  ClusterTopology& operator=(const ClusterTopology&) = delete;

  // Spawns the fabric pumps and forward loops, balancer drive loops,
  // membership service, and per-backend heartbeat senders. `horizon` bounds
  // every periodic loop (heartbeats, sweep); pick it past the bench's last
  // interesting simulated cycle. Call once, before engine().Run().
  void Start(sim::Cycles horizon);

  int backends() const { return opts_.backends; }
  int num_domains() const { return 3 + opts_.backends; }
  sim::ParallelEngine& engine() { return *engine_; }
  DcFabric& fabric() { return *fabric_; }
  L4Balancer& balancer() { return *balancer_; }
  ClusterMembership& membership() { return *membership_; }

  hw::Machine& switch_machine() { return *machines_[kSwitchDomain]; }
  hw::Machine& client_machine() { return *machines_[kClientDomain]; }
  hw::Machine& balancer_machine() { return *machines_[kBalancerDomain]; }
  hw::Machine& backend_machine(int b) {
    return *machines_[static_cast<std::size_t>(BackendDomain(b))];
  }

  net::SimNic& client_nic() { return *client_nic_; }
  net::SimNic& balancer_nic() { return *balancer_nic_; }
  net::SimNic& backend_nic(int b) {
    return *backend_nics_[static_cast<std::size_t>(b)];
  }
  net::NetStack& balancer_stack() { return *balancer_stack_; }
  net::NetStack& backend_mgmt_stack(int b) {
    return *backend_mgmt_stacks_[static_cast<std::size_t>(b)];
  }

 private:
  Options opts_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  std::vector<std::unique_ptr<hw::Machine>> machines_;  // indexed by domain
  std::unique_ptr<DcFabric> fabric_;
  std::unique_ptr<net::SimNic> client_nic_;
  std::unique_ptr<net::SimNic> balancer_nic_;
  std::vector<std::unique_ptr<net::SimNic>> backend_nics_;
  std::unique_ptr<net::NetStack> balancer_stack_;
  std::vector<std::unique_ptr<net::NetStack>> backend_mgmt_stacks_;
  std::unique_ptr<ClusterMembership> membership_;
  std::unique_ptr<L4Balancer> balancer_;
};

}  // namespace mk::cluster

#endif  // MK_CLUSTER_TOPOLOGY_H_
