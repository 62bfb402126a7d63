#include "monitor/monitor.h"

#include <algorithm>

namespace mk::monitor {
namespace {

// How long a 2PC/collective initiator waits for a phase's acks before
// presuming abort. Comfortably exceeds the slowest observed collective on
// the modeled machines.
constexpr Cycles kPhaseTimeout = 500'000;
// 2PC conflict-retry budget: rounds of prepare/abort an initiator plays
// before reporting kRetriesExhausted.
constexpr int kMaxAttempts = 12;

// Shootdown-wave flow id: one arrow per (op, replica core). op_ids embed the
// initiator core in the top 16 bits, so the low 16 of the serial part plus
// the source core keep concurrent initiators' waves distinct.
std::uint64_t ShootdownFlow(std::uint64_t op_id, int dest_core) {
  return trace::kFlowShootdown | ((op_id & 0xffff'ffff) << 16) |
         ((op_id >> 48) << 8) | static_cast<std::uint64_t>(dest_core);
}

}  // namespace

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kBroadcast: return "Broadcast";
    case Protocol::kUnicast: return "Unicast";
    case Protocol::kMulticast: return "Multicast";
    case Protocol::kNumaMulticast: return "NUMA-Aware Multicast";
  }
  return "?";
}

Monitor::Monitor(MonitorSystem& sys, int core)
    : sys_(sys), core_(core), work_(sys.machine().exec()) {}

caps::CapDb::PreparedOp Monitor::ToCapOp(const OpMsg& msg) const {
  caps::CapDb::PreparedOp op;
  op.op_id = msg.op_id;
  op.target = msg.cap_target;
  op.is_revoke = msg.cap_is_revoke != 0;
  op.new_type = static_cast<caps::CapType>(msg.cap_new_type);
  op.child_bytes = msg.cap_child_bytes;
  op.count = msg.cap_count;
  return op;
}

Task<Monitor::ApplyResult> Monitor::ApplyAction(const OpMsg& msg) {
  hw::Machine& m = sys_.machine();
  switch (msg.kind) {
    case OpKind::kInvalidate:
      if (!msg.skip_tlb()) {
        for (std::uint32_t i = 0; i < msg.pages; ++i) {
          co_await m.tlb(core_).Invalidate(msg.vaddr + i * hw::kPageSize);
        }
        if (msg.source != core_) {
          // Terminates the shootdown-wave flow the initiator originated in
          // RunCollective (one arrow per replica core).
          trace::Emit<trace::Category::kTlb>(trace::EventId::kTlbShootdown,
                                             m.exec().now(), core_, msg.vaddr, 0,
                                             ShootdownFlow(msg.op_id, core_),
                                             trace::Phase::kFlowIn);
        }
      }
      co_return ApplyResult{};
    case OpKind::kPrepare: {
      const caps::CapErr err = caps_.Prepare(ToCapOp(msg));
      const bool ok = err == caps::CapErr::kOk;
      trace::Emit<trace::Category::kMonitor>(trace::EventId::kCapPrepare, m.exec().now(),
                                             core_, msg.op_id, ok ? 1 : 0);
      // Only a lock conflict is worth retrying; every other refusal (bad
      // cap, bad range, live descendants...) is permanent.
      co_return ApplyResult{ok, err == caps::CapErr::kConflict};
    }
    case OpKind::kCommit:
      committed_children_[msg.op_id] = caps_.Commit(msg.op_id);
      trace::Emit<trace::Category::kMonitor>(trace::EventId::kCapCommit, m.exec().now(),
                                             core_, msg.op_id);
      co_return ApplyResult{};
    case OpKind::kAbort:
      caps_.Abort(msg.op_id);
      trace::Emit<trace::Category::kMonitor>(trace::EventId::kCapAbort, m.exec().now(),
                                             core_, msg.op_id);
      co_return ApplyResult{};
    case OpKind::kCapSend: {
      caps::Capability cap;
      cap.type = static_cast<caps::CapType>(msg.cap_new_type);
      cap.base = msg.vaddr;
      cap.bytes = msg.cap_child_bytes;
      trace::Emit<trace::Category::kMonitor>(trace::EventId::kCapTransfer, m.exec().now(),
                                             core_, msg.op_id);
      co_return ApplyResult{caps_.InsertRemote(cap).err == caps::CapErr::kOk, false};
    }
    case OpKind::kPing:
      co_return ApplyResult{};
    case OpKind::kCustom:
      co_return ApplyResult{custom_ ? co_await custom_(msg) : true, false};
  }
  co_return ApplyResult{};
}

std::vector<int> Monitor::ChildrenFor(const OpMsg& msg) const {
  if (msg.proto != Protocol::kMulticast && msg.proto != Protocol::kNumaMulticast) {
    return {};
  }
  int limit = msg.ncores == 0 ? sys_.machine().num_cores() : msg.ncores;
  const skb::MulticastRoute route =
      sys_.EffectiveRoute(msg.source, msg.proto == Protocol::kNumaMulticast);
  for (const auto& node : route.nodes) {
    if (node.leader != core_) {
      continue;
    }
    std::vector<int> children;
    for (int member : node.members) {
      if (member < limit) {
        children.push_back(member);
      }
    }
    return children;
  }
  return {};
}

Task<> Monitor::SendAck(int to, std::uint64_t op_id, bool vote, bool retryable,
                        bool raw) {
  // A fail-stop core acknowledges nothing: the coroutine handling the op may
  // have been in flight when the halt struck, so the cut is here, at the
  // reply.
  if (sys_.machine().Halted(core_)) {
    co_return;
  }
  AckMsg ack;
  ack.op_id = op_id;
  ack.vote = vote ? 1 : 0;
  ack.retryable = retryable ? 1 : 0;
  (void)raw;
  co_await sys_.GetChannel(core_, to, /*numa_node=*/-1).Send(urpc::Pack(kTagAck, ack));
}

Task<> Monitor::HandleOp(OpMsg msg, int from) {
  ++messages_handled_;
  hw::Machine& m = sys_.machine();
  trace::Emit<trace::Category::kMonitor>(trace::EventId::kMonHandleOp, m.exec().now(),
                                         core_, msg.op_id,
                                         static_cast<std::uint64_t>(msg.kind));
  if (msg.kind == OpKind::kAbort) {
    // Presumed abort: if this core is an aggregation leader still waiting on
    // a (possibly dead) child's prepare ack for this op, the initiator's
    // abort supersedes that round — drop the stale aggregation state so no
    // in-flight-op entry leaks.
    ops_.erase(msg.op_id);
  }
  if (!msg.raw()) {
    co_await m.Compute(core_, m.cost().msg_demux);
  }
  if (msg.kind == OpKind::kCapSend) {
    ApplyResult r = co_await ApplyAction(msg);
    co_await SendAck(from, msg.op_id, r.vote, r.retryable, msg.raw());
    co_return;
  }
  ApplyResult r = co_await ApplyAction(msg);
  std::vector<int> children = ChildrenFor(msg);
  if (children.empty()) {
    co_await SendAck(from, msg.op_id, r.vote, r.retryable, msg.raw());
    co_return;
  }
  OpState st;
  st.pending = static_cast<int>(children.size());
  st.vote = r.vote;
  st.retryable = r.retryable;
  st.parent = from;
  st.raw = msg.raw();
  ops_[msg.op_id] = st;
  for (int child : children) {
    int node = msg.proto == Protocol::kNumaMulticast ? m.topo().PackageOf(core_) : -1;
    co_await sys_.GetChannel(core_, child, node).Send(urpc::Pack(kTagOp, msg));
  }
}

Task<> Monitor::HandleAck(AckMsg ack) {
  auto it = ops_.find(ack.op_id);
  if (it == ops_.end()) {
    co_return;  // stale ack (op already aborted/completed/timed out)
  }
  hw::Machine& m = sys_.machine();
  if (!it->second.raw) {
    co_await m.Compute(core_, m.cost().msg_demux);
    // The initiator's phase timeout may have erased the op while the demux
    // charge was in flight; the iterator would dangle.
    it = ops_.find(ack.op_id);
    if (it == ops_.end()) {
      co_return;
    }
  }
  OpState& st = it->second;
  st.vote = st.vote && ack.vote != 0;
  st.retryable = st.retryable || ack.retryable != 0;
  if (--st.pending > 0) {
    co_return;
  }
  if (st.done != nullptr) {
    st.done->Signal();  // initiator: RunCollective reads the final vote
    co_return;
  }
  int parent = st.parent;
  bool vote = st.vote;
  bool retryable = st.retryable;
  bool raw = st.raw;
  ops_.erase(it);
  co_await SendAck(parent, ack.op_id, vote, retryable, raw);
}

Task<> Monitor::Dispatch(const urpc::Message& msg, int from) {
  if (msg.tag == kTagOp) {
    co_await HandleOp(urpc::Unpack<OpMsg>(msg), from);
  } else if (msg.tag == kTagAck) {
    co_await HandleAck(urpc::Unpack<AckMsg>(msg));
  }
}

Task<> Monitor::Loop() {
  hw::Machine& m = sys_.machine();
  while (sys_.running()) {
    if (m.Halted(core_)) {
      // Fail-stop: the core executes nothing from its halt time on. The
      // coroutine itself parks (frames cannot be destroyed mid-flight);
      // data-hook signals may wake it, and it immediately parks again.
      if (!halt_traced_) {
        halt_traced_ = true;
        trace::Emit<trace::Category::kFault>(trace::EventId::kFaultCoreHalt,
                                             m.exec().now(), core_,
                                             static_cast<std::uint64_t>(core_));
      }
      co_await work_.Wait();
      continue;
    }
    if (!sys_.IsOnline(core_)) {
      // The core is powered down (MONITOR/MWAIT): park until a view change.
      co_await work_.Wait();
      continue;
    }
    bool any = false;
    // Indexed, not iterated: a dispatch may register a new channel to this
    // core and grow the list.
    auto& in = sys_.in_channels_[static_cast<std::size_t>(core_)];
    for (std::size_t i = 0; i < in.size(); ++i) {
      urpc::Channel* ch = in[i].second;
      int from = in[i].first;
      urpc::Message msg;
      while (ch->HasMessage()) {
        (void)co_await ch->TryRecv(&msg);
        co_await Dispatch(msg, from);
        any = true;
      }
    }
    // Broadcast groups: a published line invalidates our copy; re-fetch it
    // (this read serializes at the publisher's package) and handle the op.
    std::vector<int> sources;
    for (const auto& [src, grp] : sys_.bcast_) {
      if (src != core_ && grp.seq > bcast_seen_[src]) {
        sources.push_back(src);
      }
    }
    for (int src : sources) {
      auto& grp = sys_.bcast_[src];
      OpMsg op = grp.current;
      int limit = op.ncores == 0 ? m.num_cores() : op.ncores;
      bcast_seen_[src] = grp.seq;
      if (core_ >= limit) {
        continue;
      }
      co_await m.mem().Read(core_, grp.line);
      co_await HandleOp(op, src);
      any = true;
    }
    if (!any) {
      co_await work_.Wait();
    }
  }
}

Task<Monitor::CollectiveResult> Monitor::RunCollective(OpMsg msg) {
  hw::Machine& m = sys_.machine();
  const Cycles t0 = m.exec().now();
  int limit = msg.ncores == 0 ? m.num_cores() : msg.ncores;
  sim::Event done(m.exec());

  // The initiator applies the operation to its own replica first.
  ApplyResult local = co_await ApplyAction(msg);
  bool local_vote = local.vote;

  // Originate the shootdown-wave flows: one arrow from the initiator to each
  // replica that will invalidate (the kFlowIn ends land in ApplyAction).
  if (msg.kind == OpKind::kInvalidate && !msg.skip_tlb() &&
      trace::Enabled<trace::Category::kTlb>()) {
    for (int c = 0; c < limit; ++c) {
      if (c != core_ && sys_.IsOnline(c)) {
        trace::Emit<trace::Category::kTlb>(trace::EventId::kTlbShootdown, m.exec().now(),
                                           core_, msg.vaddr,
                                           static_cast<std::uint64_t>(c),
                                           ShootdownFlow(msg.op_id, c),
                                           trace::Phase::kFlowOut);
      }
    }
  }

  // Build the send plan: (destination, channel NUMA node).
  std::vector<std::pair<int, int>> sends;
  if (msg.proto == Protocol::kUnicast || msg.proto == Protocol::kBroadcast) {
    for (int c = 0; c < limit; ++c) {
      if (c != core_ && sys_.IsOnline(c)) {
        sends.emplace_back(c, -1);
      }
    }
  } else {
    const bool numa = msg.proto == Protocol::kNumaMulticast;
    const skb::MulticastRoute route = sys_.EffectiveRoute(core_, numa);
    for (const auto& node : route.nodes) {
      if (node.leader == core_) {
        for (int member : node.members) {
          if (member < limit) {
            sends.emplace_back(member, -1);
          }
        }
      } else if (node.leader < limit) {
        sends.emplace_back(node.leader, numa ? node.package : -1);
      }
    }
  }

  if (sends.empty()) {
    trace::EmitSpan<trace::Category::kMonitor>(trace::EventId::kMonCollective, t0,
                                               m.exec().now(), core_, msg.op_id);
    co_return CollectiveResult{m.exec().now() - t0, local_vote, local.retryable, false};
  }

  OpState st;
  st.pending = static_cast<int>(sends.size());
  st.vote = local_vote;
  st.retryable = local.retryable;
  st.raw = msg.raw();
  st.done = &done;
  ops_[msg.op_id] = st;

  if (msg.proto == Protocol::kBroadcast) {
    auto& grp = sys_.GetBroadcastGroup(core_);
    ++grp.seq;
    grp.current = msg;
    co_await m.mem().Write(core_, grp.line);
    // Slaves polling the line see the invalidation; wake their loops.
    for (int c = 0; c < limit; ++c) {
      if (c != core_ && sys_.IsOnline(c)) {
        sys_.on(c).work_.Signal();
      }
    }
  } else {
    for (auto [dest, node] : sends) {
      co_await sys_.GetChannel(core_, dest, node).Send(urpc::Pack(kTagOp, msg));
    }
  }

  // A phase that outlives the timeout means some participant will never
  // answer: presume abort, detect the dead core(s), and exclude them from
  // subsequent rounds.
  const bool timed_out =
      !co_await done.WaitTimeout(recover::Bound(kPhaseTimeout));
  CollectiveResult result;
  result.latency = m.exec().now() - t0;
  if (timed_out) {
    trace::Emit<trace::Category::kFault>(trace::EventId::kFault2pcTimeout,
                                         m.exec().now(), core_, msg.op_id);
    sys_.ExcludeHaltedCores();
    result.all_yes = false;
    result.retryable = true;  // survivors may well agree once the dead are excluded
    result.timed_out = true;
  } else {
    result.all_yes = ops_[msg.op_id].vote;
    result.retryable = ops_[msg.op_id].retryable;
  }
  ops_.erase(msg.op_id);
  trace::EmitSpan<trace::Category::kMonitor>(trace::EventId::kMonCollective, t0,
                                             m.exec().now(), core_, msg.op_id);
  co_return result;
}

Task<Monitor::CollectiveResult> Monitor::GlobalInvalidate(std::uint64_t vaddr,
                                                          std::uint32_t pages, Protocol proto,
                                                          OpFlags flags,
                                                          std::uint16_t ncores) {
  OpMsg msg;
  msg.op_id = (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  msg.kind = OpKind::kInvalidate;
  msg.proto = proto;
  msg.source = static_cast<std::uint16_t>(core_);
  msg.ncores = ncores;
  msg.vaddr = vaddr;
  msg.pages = pages;
  msg.set_raw(flags.raw);
  msg.set_skip_tlb(flags.skip_tlb);
  co_return co_await RunCollective(msg);
}

Task<Monitor::TwoPcResult> Monitor::GlobalRetype(caps::CapId target, caps::CapType new_type,
                                                 std::uint64_t child_bytes,
                                                 std::uint32_t count, Protocol proto,
                                                 OpFlags flags, std::uint16_t ncores) {
  OpMsg msg;
  msg.op_id = (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  msg.kind = OpKind::kPrepare;
  msg.proto = proto;
  msg.source = static_cast<std::uint16_t>(core_);
  msg.ncores = ncores;
  msg.cap_target = target;
  msg.cap_new_type = static_cast<std::uint8_t>(new_type);
  msg.cap_is_revoke = 0;
  msg.cap_child_bytes = child_bytes;
  msg.cap_count = count;
  msg.set_raw(flags.raw);
  co_return co_await TwoPhase(msg);
}

Task<Monitor::TwoPcResult> Monitor::GlobalRevoke(caps::CapId target, Protocol proto,
                                                 OpFlags flags) {
  OpMsg msg;
  msg.op_id = (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  msg.kind = OpKind::kPrepare;
  msg.proto = proto;
  msg.source = static_cast<std::uint16_t>(core_);
  msg.cap_target = target;
  msg.cap_is_revoke = 1;
  msg.set_raw(flags.raw);
  co_return co_await TwoPhase(msg);
}

Task<Monitor::TwoPcResult> Monitor::TwoPhase(OpMsg msg) {
  hw::Machine& m = sys_.machine();
  const Cycles t0 = m.exec().now();
  TwoPcResult result;
  // Conflicting prepares can all abort (each holds its own replica lock and
  // refuses the others); retry with a per-core deterministic backoff so one
  // initiator eventually wins. A *permanent* validation failure (bad cap,
  // live descendants, ...) aborts immediately — retrying cannot change the
  // vote — and is reported distinctly from exhausting the conflict retries.
  // A phase timeout (dead participant, fault injection) counts as retryable:
  // the timed-out round excluded the dead cores, so the next attempt can
  // commit among the survivors.
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++result.attempts;
    msg.kind = OpKind::kPrepare;
    const Cycles prep_start = m.exec().now();
    CollectiveResult prepare = co_await RunCollective(msg);
    trace::EmitSpan<trace::Category::kMonitor>(trace::EventId::kMon2pcPrepare, prep_start,
                                               m.exec().now(), core_, msg.op_id);
    msg.kind = prepare.all_yes ? OpKind::kCommit : OpKind::kAbort;
    const Cycles phase2_start = m.exec().now();
    (void)co_await RunCollective(msg);
    trace::EmitSpan<trace::Category::kMonitor>(prepare.all_yes
                                                   ? trace::EventId::kMon2pcCommit
                                                   : trace::EventId::kMon2pcAbort,
                                               phase2_start, m.exec().now(), core_,
                                               msg.op_id);
    if (prepare.all_yes) {
      result.committed = true;
      result.outcome = TwoPcOutcome::kCommitted;
      break;
    }
    if (!prepare.retryable) {
      result.outcome = TwoPcOutcome::kAborted;
      break;
    }
    result.outcome = TwoPcOutcome::kRetriesExhausted;
    // The backoff must exceed a full two-phase round so phase-locked
    // initiators separate; the per-core factor breaks symmetry.
    Cycles backoff =
        (Cycles{4000} << attempt) * (1 + static_cast<Cycles>(core_) % 5) +
        static_cast<Cycles>(core_) * 977;
    result.backoff += backoff;
    co_await m.exec().Delay(backoff);
    // A fresh op id per attempt: the old prepares were aborted everywhere.
    msg.op_id = (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  }
  result.latency = m.exec().now() - t0;
  co_return result;
}

Task<caps::CapErr> Monitor::SendCap(int dest_core, caps::CapId id) {
  const caps::Capability* cap = caps_.Get(id);
  if (cap == nullptr) {
    co_return caps::CapErr::kBadCap;
  }
  if (!caps::TransferableType(cap->type)) {
    co_return caps::CapErr::kBadType;
  }
  if (caps_.IsLocked(id)) {
    co_return caps::CapErr::kLocked;  // pending revocation/retype
  }
  if (!cap->rights.grant) {
    co_return caps::CapErr::kNoRights;
  }
  OpMsg msg;
  msg.op_id = (static_cast<std::uint64_t>(core_) << 48) | next_op_++;
  msg.kind = OpKind::kCapSend;
  msg.proto = Protocol::kUnicast;
  msg.source = static_cast<std::uint16_t>(core_);
  msg.vaddr = cap->base;
  msg.cap_child_bytes = cap->bytes;
  msg.cap_new_type = static_cast<std::uint8_t>(cap->type);

  sim::Event done(sys_.machine().exec());
  OpState st;
  st.pending = 1;
  st.done = &done;
  ops_[msg.op_id] = st;
  co_await sys_.GetChannel(core_, dest_core, -1).Send(urpc::Pack(kTagOp, msg));
  // The destination may be dead; bound the wait and report it distinctly.
  if (!co_await done.WaitTimeout(recover::Bound(kPhaseTimeout))) {
    ops_.erase(msg.op_id);
    sys_.ExcludeHaltedCores();
    co_return caps::CapErr::kTimeout;
  }
  bool ok = ops_[msg.op_id].vote;
  ops_.erase(msg.op_id);
  co_return ok ? caps::CapErr::kOk : caps::CapErr::kBadType;
}

MonitorSystem::MonitorSystem(hw::Machine& machine, skb::Skb& skb,
                             std::vector<std::unique_ptr<kernel::CpuDriver>>& drivers)
    : machine_(machine), skb_(skb), drivers_(drivers),
      channel_at_(static_cast<std::size_t>(machine.num_cores()) *
                      static_cast<std::size_t>(machine.num_cores()) *
                      static_cast<std::size_t>(machine.topo().num_packages() + 1)),
      in_channels_(static_cast<std::size_t>(machine.num_cores())),
      online_(static_cast<std::size_t>(machine.num_cores()), true),
      failed_(static_cast<std::size_t>(machine.num_cores()), false) {
  for (int c = 0; c < machine.num_cores(); ++c) {
    monitors_.push_back(std::make_unique<Monitor>(*this, c));
  }
}

MonitorSystem::~MonitorSystem() { Shutdown(); }

void MonitorSystem::Boot() {
  running_ = true;
  for (auto& mon : monitors_) {
    machine_.exec().Spawn(mon->Loop());
  }
  // The heartbeat schedules periodic timer events, so it runs only while
  // recovery is armed.
  if (recover::Armed()) {
    machine_.exec().Spawn(HeartbeatLoop());
  }
}

Task<> MonitorSystem::HeartbeatLoop() {
  while (running_) {
    co_await machine_.exec().Delay(kHeartbeatPeriod);
    if (!running_) {
      break;
    }
    ExcludeHaltedCores();
  }
}

int MonitorSystem::ExcludeHaltedCores() {
  int excluded = 0;
  for (int c = 0; c < machine_.num_cores(); ++c) {
    if (online_[static_cast<std::size_t>(c)] && machine_.Halted(c)) {
      online_[static_cast<std::size_t>(c)] = false;
      failed_[static_cast<std::size_t>(c)] = true;
      trace::Emit<trace::Category::kFault>(trace::EventId::kFaultExcludeCore,
                                           machine_.exec().now(), c,
                                           static_cast<std::uint64_t>(c));
      on(c).work_.Signal();  // its loop observes the halt and parks
      if (exclusion_hook_) {
        exclusion_hook_(c);
      }
      ++excluded;
    }
  }
  return excluded;
}

void MonitorSystem::Shutdown() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (auto& mon : monitors_) {
    mon->work_.Signal();
  }
}

caps::CapId MonitorSystem::InstallRootCap(std::uint64_t base, std::uint64_t bytes) {
  caps::CapId id = caps::kNoCap;
  for (auto& mon : monitors_) {
    id = mon->caps().InstallRoot(base, bytes);
  }
  return id;
}

bool MonitorSystem::ReplicasConsistent() const {
  std::uint64_t digest = monitors_.front()->caps_.Digest();
  for (const auto& mon : monitors_) {
    if (mon->caps_.Digest() != digest) {
      return false;
    }
  }
  return true;
}

bool MonitorSystem::LiveReplicasConsistent() const {
  std::uint64_t digest = 0;
  bool have_digest = false;
  for (const auto& mon : monitors_) {
    if (!online_[static_cast<std::size_t>(mon->core())]) {
      continue;
    }
    std::uint64_t d = mon->caps_.Digest();
    if (!have_digest) {
      digest = d;
      have_digest = true;
    } else if (d != digest) {
      return false;
    }
  }
  return true;
}

const skb::MulticastRoute& MonitorSystem::RouteFor(int source, bool numa_aware) {
  auto key = std::make_pair(source, numa_aware);
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    it = routes_.emplace(key, skb_.BuildMulticastRoute(source, numa_aware)).first;
  }
  return it->second;
}

urpc::Channel& MonitorSystem::GetChannel(int from, int to, int numa_node) {
  const auto cores = static_cast<std::size_t>(num_cores());
  const auto nodes = static_cast<std::size_t>(machine_.topo().num_packages() + 1);
  urpc::Channel*& slot = channel_at_[(static_cast<std::size_t>(from) * cores +
                                      static_cast<std::size_t>(to)) * nodes +
                                     static_cast<std::size_t>(numa_node + 1)];
  if (slot == nullptr) {
    urpc::ChannelOptions opts;
    opts.slots = 8;
    opts.prefetch = true;  // monitors poll channel arrays (section 4.6)
    opts.numa_node = numa_node;
    auto ch = std::make_unique<urpc::Channel>(machine_, from, to, opts);
    Monitor* receiver = monitors_[static_cast<std::size_t>(to)].get();
    ch->SetDataHook([receiver] { receiver->work_.Signal(); });
    in_channels_[static_cast<std::size_t>(to)].emplace_back(from, ch.get());
    slot = ch.get();
    channels_.push_back(std::move(ch));
  }
  return *slot;
}

int MonitorSystem::OnlineCount() const {
  int n = 0;
  for (bool b : online_) {
    n += b ? 1 : 0;
  }
  return n;
}

skb::MulticastRoute MonitorSystem::EffectiveRoute(int source, bool numa_aware) {
  skb::MulticastRoute route = RouteFor(source, numa_aware);
  skb::MulticastRoute out;
  out.source = route.source;
  for (auto& node : route.nodes) {
    skb::MulticastRoute::Node n;
    n.package = node.package;
    n.est_latency = node.est_latency;
    std::vector<int> live;
    if (IsOnline(node.leader)) {
      live.push_back(node.leader);
    }
    for (int m : node.members) {
      if (IsOnline(m)) {
        live.push_back(m);
      }
    }
    if (live.empty()) {
      continue;  // whole package powered down
    }
    // The source stays its own package's aggregation point.
    if (node.leader == source) {
      n.leader = source;
      for (int m : live) {
        if (m != source) {
          n.members.push_back(m);
        }
      }
    } else {
      n.leader = live.front();
      n.members.assign(live.begin() + 1, live.end());
    }
    out.nodes.push_back(std::move(n));
  }
  return out;
}

Task<bool> MonitorSystem::OfflineCore(int initiator, int core) {
  if (core == initiator || !IsOnline(core)) {
    co_return false;
  }
  // View-change agreement: every live monitor (including the victim, which
  // must quiesce) acknowledges the new view before it takes effect.
  OpMsg msg;
  msg.kind = OpKind::kPing;
  msg.proto = Protocol::kNumaMulticast;
  msg.source = static_cast<std::uint16_t>(initiator);
  (void)co_await on(initiator).RunCollectiveForTest(msg);
  online_[static_cast<std::size_t>(core)] = false;
  on(core).work_.Signal();  // let its loop observe the view and park
  co_return true;
}

Task<bool> MonitorSystem::OnlineCore(int initiator, int core) {
  if (IsOnline(core)) {
    co_return false;
  }
  // Replica catch-up: the initiator streams its capability database to the
  // returning core (posted writes, read back on the target).
  const caps::CapDb& source_db = on(initiator).caps();
  std::uint64_t bytes = (source_db.LiveCount() + 1) * 64;
  hw::LineRegion buf(machine_.mem(), machine_.topo().PackageOf(core),
                     sim::LinesCovering(0, bytes));
  co_await machine_.mem().WritePosted(initiator, buf.base(), bytes);
  co_await machine_.mem().Read(core, buf.base(), bytes);
  on(core).caps_ = source_db;  // the transferred replica
  online_[static_cast<std::size_t>(core)] = true;
  on(core).work_.Signal();
  // Announce the view change.
  OpMsg msg;
  msg.kind = OpKind::kPing;
  msg.proto = Protocol::kNumaMulticast;
  msg.source = static_cast<std::uint16_t>(initiator);
  (void)co_await on(initiator).RunCollectiveForTest(msg);
  co_return true;
}

MonitorSystem::BroadcastGroup& MonitorSystem::GetBroadcastGroup(int source) {
  auto it = bcast_.find(source);
  if (it == bcast_.end()) {
    BroadcastGroup grp;
    grp.line = machine_.mem().AllocLines(machine_.topo().PackageOf(source), 1);
    it = bcast_.emplace(source, grp).first;
  }
  return it->second;
}

}  // namespace mk::monitor
