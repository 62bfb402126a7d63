#include "cluster/membership.h"

#include <utility>

namespace mk::cluster {

namespace {
void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}
}  // namespace

std::vector<std::uint8_t> EncodeHeartbeat(std::uint32_t id,
                                          std::uint32_t incarnation,
                                          std::uint64_t seq) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  PutU32(&out, id);
  PutU32(&out, incarnation);
  PutU64(&out, seq);
  return out;
}

bool DecodeHeartbeat(const std::vector<std::uint8_t>& payload, std::uint32_t* id,
                     std::uint32_t* incarnation, std::uint64_t* seq) {
  if (payload.size() != 16) {
    return false;
  }
  *id = GetU32(payload.data());
  *incarnation = GetU32(payload.data() + 4);
  *seq = GetU64(payload.data() + 8);
  return true;
}

ClusterMembership::ClusterMembership(hw::Machine& machine, net::NetStack& stack,
                                     Options opts)
    : machine_(machine), stack_(stack), opts_(opts) {
  view_.live.assign(static_cast<std::size_t>(opts_.backends), true);
  backends_.resize(static_cast<std::size_t>(opts_.backends));
}

void ClusterMembership::Start(sim::Cycles horizon) {
  machine_.exec().Spawn(RecvLoop());
  machine_.exec().Spawn(SweepLoop(horizon));
}

void ClusterMembership::OnHeartbeat(std::uint32_t id, std::uint32_t incarnation,
                                    std::uint64_t seq, sim::Cycles now) {
  if (id >= static_cast<std::uint32_t>(opts_.backends)) {
    ++stale_dropped_;
    return;
  }
  Backend& b = backends_[id];
  if (!b.alive) {
    // Fenced: a declared-dead incarnation never resurrects the backend, and
    // rejoining under a fresh incarnation is a deliberate admission step this
    // service does not take on its own.
    ++stale_dropped_;
    return;
  }
  if (incarnation < b.incarnation) {
    ++stale_dropped_;
    return;
  }
  if (incarnation > b.incarnation) {
    b.incarnation = incarnation;
    b.last_seq = 0;
  } else if (seq <= b.last_seq && b.last_seq != 0) {
    ++stale_dropped_;  // duplicate or reordered within the incarnation
    return;
  }
  b.last_seq = seq;
  b.last_heard = now;
  ++accepted_;
}

sim::Task<> ClusterMembership::RecvLoop() {
  net::NetStack::UdpSocket& sock = stack_.UdpBind(opts_.port);
  for (;;) {
    net::NetStack::UdpDatagram dg = co_await sock.Recv();
    std::uint32_t id = 0;
    std::uint32_t incarnation = 0;
    std::uint64_t seq = 0;
    if (!DecodeHeartbeat(dg.payload, &id, &incarnation, &seq)) {
      ++stale_dropped_;
      continue;
    }
    OnHeartbeat(id, incarnation, seq, machine_.exec().now());
  }
}

sim::Task<> ClusterMembership::SweepLoop(sim::Cycles horizon) {
  sim::Executor& exec = machine_.exec();
  while (exec.now() < horizon) {
    co_await exec.Delay(kSweepPeriod);
    const sim::Cycles now = exec.now();
    for (int i = 0; i < opts_.backends; ++i) {
      Backend& b = backends_[static_cast<std::size_t>(i)];
      if (b.alive && now > b.last_heard + kHeartbeatTimeout) {
        b.alive = false;
        view_.epoch += 1;
        view_.live[static_cast<std::size_t>(i)] = false;
        for (const Subscriber& fn : subscribers_) {
          fn(view_, i);
        }
      }
    }
  }
}

sim::Task<> RunHeartbeatSender(hw::Machine& machine, int core,
                               net::NetStack& stack, int id,
                               std::uint32_t incarnation, net::Ipv4Addr dst_ip,
                               std::uint16_t dst_port, sim::Cycles horizon) {
  sim::Executor& exec = machine.exec();
  std::uint64_t seq = 0;
  while (exec.now() < horizon) {
    if (machine.Halted(core)) {
      co_return;  // fail-stop: the machine goes silent
    }
    co_await stack.UdpSendTo(dst_port, dst_ip, dst_port,
                             EncodeHeartbeat(static_cast<std::uint32_t>(id),
                                             incarnation, ++seq));
    co_await exec.Delay(ClusterMembership::kHeartbeatPeriod);
  }
}

}  // namespace mk::cluster
