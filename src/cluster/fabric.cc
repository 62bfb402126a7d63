#include "cluster/fabric.h"

#include <utility>

namespace mk::cluster {
namespace {

// Per-frame switching work, charged on the forwarding core.
constexpr sim::Cycles kForwardCost = 300;

}  // namespace

DcFabric::DcFabric(sim::ParallelEngine& engine, int switch_domain,
                   hw::Machine& switch_machine)
    : engine_(engine), switch_domain_(switch_domain), machine_(switch_machine) {}

int DcFabric::AddPort(int remote_domain, net::SimNic& remote_nic, double gbps,
                      sim::Cycles latency, int queues) {
  auto port = std::make_unique<Port>();
  port->id = num_ports();
  port->remote_domain = remote_domain;
  net::SimNic::Config cfg;
  cfg.rx_descs = 4096;
  cfg.tx_descs = 4096;
  cfg.gbps = gbps;
  cfg.queues = queues;
  for (int q = 0; q < queues; ++q) {
    const int core = next_core_ % machine_.num_cores();
    ++next_core_;
    port->cores.push_back(core);
    cfg.irq_cores.push_back(core);
  }
  // Home this port's rings and frame buffers on the package that runs its
  // forwarding loops. Leaving every port on node 0 serializes all ports'
  // DMA writes and buffer reads on one home memory controller — the switch
  // reproduces the paper's shared-controller saturation instead of scaling
  // with ports — and the contention grows with machine count even though
  // each port's own load is constant.
  cfg.node = machine_.topo().PackageOf(port->cores.front());
  cfg.irq_latency = machine_.cost().ipi_wire;
  port->sw_nic = std::make_unique<net::SimNic>(machine_, cfg);
  port->wire = std::make_unique<net::CrossWire>(engine_, switch_domain_,
                                                *port->sw_nic, remote_domain,
                                                remote_nic, latency);
  ports_.push_back(std::move(port));
  return ports_.back()->id;
}

void DcFabric::AddRoute(const net::MacAddr& mac, int port) {
  routes_[mac] = port;
}

void DcFabric::Start() {
  for (auto& port : ports_) {
    port->wire->Start();
    for (int q = 0; q < port->sw_nic->num_queues(); ++q) {
      const int core = port->cores[static_cast<std::size_t>(q)];
      machine_.exec().Spawn(port->sw_nic->ServeRx(
          core, q, kForwardCost, [this, core, q](net::Packet frame) {
            return Forward(std::move(frame), core, q);
          }));
    }
  }
}

sim::Task<> DcFabric::Forward(net::Packet frame, int ingress_core,
                              int ingress_queue) {
  if (frame.size() < 6) {
    ++unknown_dst_drops_;
    co_return;
  }
  net::MacAddr dst;
  for (std::size_t i = 0; i < 6; ++i) {
    dst[i] = frame[i];
  }
  const auto it = routes_.find(dst);
  if (it == routes_.end()) {
    ++unknown_dst_drops_;
    co_return;
  }
  net::SimNic& egress = *ports_[static_cast<std::size_t>(it->second)]->sw_nic;
  // Egress ring keyed off the ingress ring: RSS pinned the flow to one
  // ingress queue, so this keeps each flow's frames in one egress ring too
  // (FIFO per hop, hence FIFO end-to-end).
  const int egress_queue = ingress_queue % egress.num_queues();
  if (co_await egress.DriverTxPush(ingress_core, std::move(frame),
                                   egress_queue)) {
    ++forwarded_;
  } else {
    ++tx_full_drops_;
  }
}

}  // namespace mk::cluster
