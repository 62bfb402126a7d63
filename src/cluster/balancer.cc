#include "cluster/balancer.h"

#include <utility>

namespace mk::cluster {
namespace {

constexpr std::uint64_t kSteerSeed = 0x4C344C42;  // 'L4LB'
constexpr sim::Cycles kFrameCost = 500;  // steering work per frame on the drive core

}  // namespace

L4Balancer::L4Balancer(hw::Machine& machine, net::SimNic& nic,
                       ClusterMembership& membership,
                       std::vector<net::MacAddr> backend_macs, net::Ipv4Addr vip)
    : machine_(machine),
      nic_(nic),
      membership_(membership),
      macs_(std::move(backend_macs)),
      vip_(vip) {}

int L4Balancer::PickAmong(const net::FlowTuple& t, bool live_only) const {
  const recover::View& v = membership_.view();
  int best = -1;
  std::uint32_t best_w = 0;
  for (int b = 0; b < static_cast<int>(macs_.size()); ++b) {
    if (live_only && !v.live[static_cast<std::size_t>(b)]) {
      continue;
    }
    // Rendezvous: per-backend keyed hash of the flow tuple; the winner is
    // stable under membership of the other backends.
    const std::uint32_t w = net::RssHash(
        kSteerSeed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(b + 1), t);
    if (best == -1 || w > best_w) {
      best = b;
      best_w = w;
    }
  }
  return best;
}

int L4Balancer::PickBackend(const net::FlowTuple& t) const {
  return PickAmong(t, /*live_only=*/true);
}

sim::Task<> L4Balancer::Drive(int core, int queue) {
  return nic_.ServeRx(core, queue, kFrameCost,
                      [this, core, queue](net::Packet frame) {
                        return HandleFrame(std::move(frame), core, queue);
                      });
}

sim::Task<> L4Balancer::HandleFrame(net::Packet frame, int core, int queue) {
  const auto tuple = net::ExtractFlowTuple(frame);
  if (!tuple || tuple->dst_ip != vip_) {
    ++mgmt_frames_;
    if (mgmt_ != nullptr) {
      co_await mgmt_->Input(std::move(frame));
    }
    co_return;
  }
  const int preferred = PickAmong(*tuple, /*live_only=*/false);
  int b = preferred;
  if (b < 0 || !membership_.view().live[static_cast<std::size_t>(b)]) {
    b = PickAmong(*tuple, /*live_only=*/true);
  }
  if (b < 0) {
    ++no_backend_drops_;
    co_return;
  }
  if (b != preferred) {
    ++resteered_;
  }
  for (std::size_t i = 0; i < 6; ++i) {
    frame[i] = macs_[static_cast<std::size_t>(b)][i];
  }
  if (co_await nic_.DriverTxPush(core, std::move(frame), queue)) {
    ++steered_;
  } else {
    ++tx_full_drops_;
  }
}

}  // namespace mk::cluster
