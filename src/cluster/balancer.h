// L4Balancer: consistent-hash flow steering onto backend machines.
//
// The balancer is its own machine on the rack: clients address the virtual
// IP (VIP), ARP-resolved to the balancer's MAC, so every inbound flow enters
// here. Per frame the balancer extracts the 4-tuple, picks a backend by
// rendezvous (highest-random-weight) hashing over the machines the
// membership view says are live, rewrites the Ethernet destination to that
// backend's MAC, and pushes the frame back out toward the switch. Rewriting
// only frame bytes 0–5 is safe — the Ethernet header is covered by no
// checksum — and leaves the IP destination as the VIP, which every backend
// shard stack also binds (direct-server-return: responses go straight from
// backend to client, bypassing the balancer).
//
// Rendezvous hashing gives the consistency property failover needs: when a
// backend dies, only the flows it owned move (each to its next-highest
// backend); every other flow keeps its backend, so established connections
// on survivors are untouched. Flows whose full-set winner is dead are
// counted as resteered.
//
// Non-VIP traffic (the heartbeat datagrams addressed to the balancer's own
// management IP) is handed to the management NetStack, which feeds
// ClusterMembership.
#ifndef MK_CLUSTER_BALANCER_H_
#define MK_CLUSTER_BALANCER_H_

#include <cstdint>
#include <vector>

#include "cluster/membership.h"
#include "hw/machine.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::cluster {

class L4Balancer {
 public:
  // Steers frames addressed to `vip`. `backend_macs[b]` is backend b's NIC
  // MAC; liveness comes from `membership` (same machine, same domain).
  L4Balancer(hw::Machine& machine, net::SimNic& nic,
             ClusterMembership& membership,
             std::vector<net::MacAddr> backend_macs, net::Ipv4Addr vip);
  L4Balancer(const L4Balancer&) = delete;
  L4Balancer& operator=(const L4Balancer&) = delete;

  // Where non-VIP frames go (the management stack carrying heartbeats).
  void SetMgmtStack(net::NetStack* stack) { mgmt_ = stack; }

  // Per-queue drive loop: the NIC's RX service loop (net::SimNic::ServeRx)
  // with steering as its per-frame work. Spawn one per NIC queue on that
  // queue's IRQ core; parks on the RX interrupt when idle.
  sim::Task<> Drive(int core, int queue);

  // The steering decision (pure): rendezvous-hash winner among live backends,
  // -1 if none are live. Exposed so tests can pin consistency properties.
  int PickBackend(const net::FlowTuple& t) const;

  std::uint64_t steered() const { return steered_; }
  std::uint64_t resteered() const { return resteered_; }
  std::uint64_t mgmt_frames() const { return mgmt_frames_; }
  std::uint64_t no_backend_drops() const { return no_backend_drops_; }
  std::uint64_t tx_full_drops() const { return tx_full_drops_; }

 private:
  sim::Task<> HandleFrame(net::Packet frame, int core, int queue);
  int PickAmong(const net::FlowTuple& t, bool live_only) const;

  hw::Machine& machine_;
  net::SimNic& nic_;
  ClusterMembership& membership_;
  std::vector<net::MacAddr> macs_;
  net::Ipv4Addr vip_;
  net::NetStack* mgmt_ = nullptr;
  std::uint64_t steered_ = 0;
  std::uint64_t resteered_ = 0;
  std::uint64_t mgmt_frames_ = 0;
  std::uint64_t no_backend_drops_ = 0;
  std::uint64_t tx_full_drops_ = 0;
};

}  // namespace mk::cluster

#endif  // MK_CLUSTER_BALANCER_H_
