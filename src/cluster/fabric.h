// DcFabric: a top-of-rack switch joining machines across parallel-engine
// domains.
//
// The paper's closing argument (§2, §7) is that the machine is a distributed
// system; a rack of machines is the same argument one level up. Each machine
// hangs off the switch through one port: a switch-side SimNic (paced at the
// port's line rate) bridged to the machine's own NIC by a net::CrossWire, so
// the port wire latency is simultaneously the engine's conservative lookahead
// for that domain pair. The switch itself is an ordinary hw::Machine whose
// cores run store-and-forward loops: pop a frame from an ingress port, charge
// the forwarding cost, look up the destination MAC, and push the frame out
// the egress port. Every rack crossing therefore pays ingress pacing, one
// switch-core forwarding charge, egress pacing, and two wire latencies —
// and the shared switch cores are the uplink contention point the rack bench
// measures.
//
// Routing is a static MAC table (the rack is a closed set of hosts, like the
// static ARP tables in net::NetStack); frames to an unknown MAC are counted
// and dropped, never flooded.
//
// A port is itself multi-queue (like the line cards it models): the
// switch-side NIC RSS-steers inbound flows across `queues` RX rings, and one
// forwarding loop runs per (port, queue) on its own switch core, assigned
// round-robin over the switch's cores in port-creation order. RSS keeps every
// flow on one ingress ring, and the egress ring is chosen from the ingress
// ring index, so per-flow frame order is preserved end-to-end while bulk
// (payload-bearing) ports spread their per-frame buffer-copy cost over
// several forwarding cores instead of serializing on one.
//
// Each port's rings and frame buffers are homed on the NUMA node that runs
// its forwarding loops. This is the paper's argument applied to the switch
// itself: with every port's buffers on node 0, all ports' DMA writes and
// buffer reads serialize on a single home memory controller, and adding
// machines collapses the rack even though each port's own load is constant
// (heartbeats queue behind data frames until the membership service declares
// healthy machines dead). Per-port homing keeps controller load flat per
// node as ports are added.
#ifndef MK_CLUSTER_FABRIC_H_
#define MK_CLUSTER_FABRIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hw/machine.h"
#include "net/crosswire.h"
#include "net/nic.h"
#include "net/wire.h"
#include "sim/parallel.h"
#include "sim/task.h"
#include "sim/types.h"

namespace mk::cluster {

class DcFabric {
 public:
  // The switch lives in `switch_domain` on `switch_machine` (whose executor
  // must be that domain's).
  DcFabric(sim::ParallelEngine& engine, int switch_domain,
           hw::Machine& switch_machine);

  // Wires `remote_nic` (living in engine domain `remote_domain`) to a new
  // switch port: builds the switch-side NIC paced at `gbps` with `queues`
  // RSS-steered RX rings, and the CrossWire at `latency` cycles each way
  // (which registers both directed engine links, so the fabric latency is
  // the lookahead). Each queue's forwarding loop gets the next switch core
  // round-robin. Returns the port id. Call before Start().
  int AddPort(int remote_domain, net::SimNic& remote_nic, double gbps,
              sim::Cycles latency, int queues = 1);

  // Static L2 route: frames whose Ethernet destination is `mac` egress
  // through `port`.
  void AddRoute(const net::MacAddr& mac, int port);

  // Spawns the cross-wires and one store-and-forward loop per (port, queue):
  // the port NIC's RX service loop (net::SimNic::ServeRx) with forwarding as
  // its per-frame work. Call before ParallelEngine::Run(); the loops quiesce
  // by parking on their queue's RX interrupt.
  void Start();

  int num_ports() const { return static_cast<int>(ports_.size()); }
  net::CrossWire& wire(int port) { return *ports_[static_cast<std::size_t>(port)]->wire; }
  const net::SimNic& port_nic(int port) const {
    return *ports_[static_cast<std::size_t>(port)]->sw_nic;
  }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t unknown_dst_drops() const { return unknown_dst_drops_; }
  std::uint64_t tx_full_drops() const { return tx_full_drops_; }

 private:
  struct Port {
    int id = 0;
    int remote_domain = 0;
    std::vector<int> cores;  // forwarding core per RX queue
    std::unique_ptr<net::SimNic> sw_nic;
    std::unique_ptr<net::CrossWire> wire;
  };

  sim::Task<> Forward(net::Packet frame, int ingress_core, int ingress_queue);

  sim::ParallelEngine& engine_;
  int switch_domain_;
  hw::Machine& machine_;
  int next_core_ = 0;  // round-robin forwarding-core assignment
  std::vector<std::unique_ptr<Port>> ports_;
  std::map<net::MacAddr, int> routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unknown_dst_drops_ = 0;
  std::uint64_t tx_full_drops_ = 0;
};

}  // namespace mk::cluster

#endif  // MK_CLUSTER_FABRIC_H_
