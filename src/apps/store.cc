#include "apps/store.h"

#include <optional>
#include <utility>

#include "apps/sqlrpc.h"
#include "recover/config.h"
#include "trace/trace.h"

namespace mk::apps {
namespace {

// Request-channel framing (web -> replica): a header message carrying the
// client write id, then the statement framed as apps/sqlrpc.h frames it. The
// follower ack channel carries kAckTag messages.
constexpr std::uint64_t kReqHdrTag = 4;
constexpr std::uint64_t kAckTag = 5;

// Every request opens with this header so the reply can be paired with the
// attempt that is actually waiting: a reply is "<nonce>|<body>", and the web
// side drains replies whose nonce belongs to a superseded (timed-out)
// attempt. Without the nonce, a commit that stalled past the RPC timeout
// would leave its late reply in the channel to be mis-paired with the NEXT
// request's wait.
struct WireReqHdr {
  std::uint64_t nonce = 0;
  std::uint64_t wid = 0;
  std::uint64_t is_write = 0;
};

net::Packet EncodeShip(const fs::WalRecord& rec) {
  std::vector<std::uint8_t> frame;
  fs::EncodeWalRecord(rec, &frame);
  return net::Packet(frame.begin(), frame.end());
}

// Store record payload: "<wid> <sql>". The wid travels inside the log record
// so a promoted or respawned replica rebuilds its dedup set from replay.
bool ParsePayload(const std::string& payload, std::uint64_t* wid, std::string* sql) {
  std::size_t sp = payload.find(' ');
  if (sp == std::string::npos) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sp; ++i) {
    char ch = payload[i];
    if (ch < '0' || ch > '9') {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  *wid = v;
  *sql = payload.substr(sp + 1);
  return true;
}

}  // namespace

ReplicatedStore::ReplicatedStore(hw::Machine& machine, fs::ReplicatedFs& fs,
                                 const Database& source,
                                 std::vector<StorePlacement> placements)
    : machine_(machine), fs_(fs), source_(source) {
  groups_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    StorePlacement& p = placements[i];
    // The WAL's fs sequencer is pinned to the shard's web core: replica-kill
    // plans never halt web cores, so the log's ordering authority survives
    // every failover this store is designed for (DESIGN.md §13 discusses the
    // sequencer-death limitation).
    std::string path = fs::Wal::PickPath(
        fs, "/wal/shard" + std::to_string(i), p.web_core);
    auto g = std::make_unique<Group>(machine_, p, fs_, std::move(path));
    for (int core : g->placement.replica_cores) {
      g->replicas.push_back(
          std::make_unique<Replica>(machine_, g->placement.web_core, core, source_));
    }
    groups_.push_back(std::move(g));
  }
}

Task<> ReplicatedStore::Start() {
  for (auto& gp : groups_) {
    Group& g = *gp;
    // One replicated-fs collective per shard; initiated at the leader core
    // (any core works — the op is sequenced at the WAL's web-core sequencer).
    (void)co_await g.wal.Open(g.replicas[0]->core);
    for (auto& r : g.replicas) {
      machine_.exec().Spawn(ServeReplica(g, r.get()));
    }
    // Boot links: leader (slot 0) ships to every other slot.
    for (std::size_t slot = 1; slot < g.replicas.size(); ++slot) {
      MakeLink(g, g.replicas[slot].get());
    }
  }
}

void ReplicatedStore::MakeLink(Group& g, Replica* follower) {
  g.links.push_back(std::make_unique<Link>(
      machine_, g.replicas[static_cast<std::size_t>(g.leader_slot)]->core, follower));
  Link* link = g.links.back().get();
  machine_.exec().Spawn(ApplyLoop(g, link));
  machine_.exec().Spawn(AckPump(g, link));
}

// --- Web side ---

Task<std::string> ReplicatedStore::RoundTrip(Group& g, bool is_write, std::uint64_t wid,
                                             const std::string& sql) {
  const int max_attempts = recover::Config().store_max_attempts;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Resolve the leader only once the slot is ours: an RPC queued behind
    // one in flight at a failover must go to the promoted leader.
    co_await g.rpc_slot.Acquire();
    Replica& r = *g.replicas[static_cast<std::size_t>(g.leader_slot)];
    WireReqHdr hdr;
    hdr.nonce = ++g.req_nonce;
    hdr.wid = wid;
    hdr.is_write = is_write ? 1 : 0;
    co_await r.requests.Send(urpc::Pack(kReqHdrTag, hdr));
    co_await SendSql(r.requests, sql);
    const std::string want = std::to_string(hdr.nonce) + "|";
    std::string text;
    bool got_reply = false;
    // Drain until this attempt's reply arrives; replies to superseded
    // attempts (an earlier timeout on this same channel) are discarded by
    // nonce. An unarmed wait never times out, so it never sees a stale nonce.
    while (true) {
      std::optional<net::Packet> reply =
          co_await r.replies.RecvTimeout(recover::Bound(recover::Config().store_rpc_timeout));
      if (!reply.has_value()) {
        break;  // timeout: give up on this attempt
      }
      text.assign(reply->begin(), reply->end());
      if (text.rfind(want, 0) == 0) {
        text = text.substr(want.size());
        got_reply = true;
        break;
      }
      // Stale nonce: a superseded attempt's late reply. Drop and keep
      // waiting — ours is still owed.
    }
    g.rpc_slot.Release();
    if (got_reply) {
      if (text == "error: not-leader") {
        continue;  // promotion raced the send; retry resolves the new leader
      }
      co_return text;
    }
    // Reply timeout: the leader is gone, or its commit stalled past the
    // timeout (a follower died and the view change hasn't landed yet).
    // Promotion is membership-driven; the retry re-resolves leader_slot —
    // with the same wid, so a write that did commit before the timeout
    // answers "dup" instead of applying twice.
    ++rpc_timeouts_;
  }
  co_return "error: store failover exhausted";
}

Task<std::string> ReplicatedStore::Query(int shard, std::string sql) {
  Group& g = *groups_[static_cast<std::size_t>(shard)];
  co_return co_await RoundTrip(g, /*is_write=*/false, 0, sql);
}

Task<std::string> ReplicatedStore::Execute(int shard, std::uint64_t wid, std::string sql) {
  Group& g = *groups_[static_cast<std::size_t>(shard)];
  co_return co_await RoundTrip(g, /*is_write=*/true, wid, sql);
}

// --- Replica serve loop ---

Task<> ReplicatedStore::ServeReplica(Group& g, Replica* r) {
  while (true) {
    urpc::Message first = co_await r->requests.Recv();
    if (first.tag == kShutdownTag) {
      co_return;
    }
    if (first.tag != kReqHdrTag) {
      continue;  // torn request (protocol bug); never reply to a half-frame
    }
    const WireReqHdr hdr = urpc::Unpack<WireReqHdr>(first);
    std::optional<std::string> sql = co_await RecvSql(r->requests);
    if (!sql.has_value()) {
      co_return;
    }
    // Fail-stop: a replica on a halted core dies with the request in hand.
    if (machine_.Halted(r->core)) {
      co_return;
    }
    const std::string prefix = std::to_string(hdr.nonce) + "|";
    // Only the current leader serves; a request that raced a promotion is
    // bounced so the web tier re-resolves (reads must not see a stale or
    // catching-up replica either — leader-locality is the consistency story).
    if (g.replicas[static_cast<std::size_t>(g.leader_slot)].get() != r || !r->caught_up) {
      co_await machine_.Compute(r->core, 1000);
      std::string bounce = prefix + "error: not-leader";
      co_await r->replies.Send(net::Packet(bounce.begin(), bounce.end()));
      continue;
    }
    std::string reply;
    if (hdr.is_write != 0) {
      reply = co_await HandleWrite(g, r, hdr.wid, *sql);
      if (reply.empty()) {
        co_return;  // halted mid-write: never ack
      }
    } else {
      reply = co_await ServeQuery(machine_, r->core, r->db, *sql);
      ++g.reads_served;
    }
    if (machine_.Halted(r->core)) {
      co_return;
    }
    reply = prefix + reply;
    co_await r->replies.Send(net::Packet(reply.begin(), reply.end()));
  }
}

Task<std::string> ReplicatedStore::HandleWrite(Group& g, Replica* r, std::uint64_t wid,
                                               const std::string& sql) {
  // Exactly-once: a retry of a write this group already applied (committed
  // but the ack was lost with the old leader) is answered without touching
  // the log or the tables — "dup" if it applied, the recorded engine error
  // if it was rejected, so a lost error reply never turns into a false "dup".
  if (auto dup = r->applied_wids.find(wid); dup != r->applied_wids.end()) {
    co_await machine_.Compute(r->core, 1000);
    ++g.writes_dup;
    co_return dup->second.empty() ? "dup" : "error: db: " + dup->second;
  }
  const std::uint64_t term = g.term;
  const std::uint64_t lsn = g.last_lsn + 1;
  fs::WalRecord rec;
  rec.lsn = lsn;
  rec.term = term;
  rec.payload = std::to_string(wid) + " " + sql;
  // 1. Durability: the append is a replicated-fs collective; when it returns
  //    kOk the record is on every online core's fs replica.
  fs::FsErr werr = co_await g.wal.Append(r->core, rec);
  if (machine_.Halted(r->core)) {
    co_return "";  // fail-stop mid-append: no ack, client retries elsewhere
  }
  if (werr != fs::FsErr::kOk) {
    co_return "error: wal-" + std::string(fs::FsErrName(werr));
  }
  // Fence: if a view change superseded this leadership while the append was
  // in flight, the deposed leader must not advance the group or ack.
  if (g.term != term || g.replicas[static_cast<std::size_t>(g.leader_slot)].get() != r) {
    ++g.writes_fenced;
    co_return "error: fenced";
  }
  g.last_lsn = lsn;
  // 2. Local apply (the leader is always caught up by construction).
  auto err = r->db.Exec(sql);
  r->applied_wids.emplace(wid, err.has_value() ? err->message : std::string());
  r->applied_lsn = lsn;
  if (r->term_seen < term) {
    r->term_seen = term;
  }
  co_await machine_.Compute(r->core, StatementCost(r->db.last_exec_scanned()));
  // 3. Ship to every live follower (even catching-up ones: applying shipped
  //    records in lsn order is how they converge). Snapshot the Link set
  //    first: Send can suspend, and a view change during the suspension may
  //    MakeLink (g.links.push_back reallocates, invalidating live iterators).
  //    Link objects themselves are never destroyed, only the vector moves —
  //    and links the new leader adds mid-ship are not ours to ship on.
  std::vector<Link*> ship_to;
  ship_to.reserve(g.links.size());
  for (const auto& l : g.links) {
    ship_to.push_back(l.get());
  }
  for (Link* l : ship_to) {
    if (l->active && l->follower->alive) {
      co_await l->ship.Send(EncodeShip(rec));
      ++g.records_shipped;
    }
  }
  // 4. Commit rule: every caught-up live follower must have acked this lsn.
  //    Membership changes and ack arrivals both signal commit_ev; the bounded
  //    wait (armed runs only) re-checks liveness each expiry so a follower
  //    that dies mid-commit cannot wedge the leader past its view change.
  while (true) {
    if (g.term != term || g.replicas[static_cast<std::size_t>(g.leader_slot)].get() != r) {
      ++g.writes_fenced;
      co_return "error: fenced";
    }
    bool all_acked = true;
    for (auto& l : g.links) {
      if (!l->active) {
        continue;
      }
      Replica* f = l->follower;
      if (f->alive && f->caught_up && f->acked_lsn < lsn) {
        all_acked = false;
        break;
      }
    }
    if (all_acked) {
      break;
    }
    (void)co_await g.commit_ev.WaitTimeout(
        recover::Bound(recover::Config().store_commit_timeout));
  }
  if (machine_.Halted(r->core)) {
    co_return "";  // fail-stop after commit, before ack: the retry sees "dup"
  }
  if (err.has_value()) {
    // The engine rejected the statement — deterministically, on every
    // replica, so the group stays consistent; the log carries the record but
    // the client learns the real error.
    ++g.writes_rejected;
    co_return "error: db: " + err->message;
  }
  ++g.writes_committed;
  co_return "ok " + std::to_string(lsn);
}

// --- Replication pumps ---

std::uint64_t ReplicatedStore::ApplyRecord(Replica* r, const fs::WalRecord& rec) {
  if (rec.lsn != r->applied_lsn + 1) {
    return 0;  // not next in order (dup or gap); caller decides what's next
  }
  std::uint64_t wid = 0;
  std::string sql;
  std::uint64_t scanned = 0;
  if (ParsePayload(rec.payload, &wid, &sql) && r->applied_wids.count(wid) == 0) {
    // Engine-level rejects are deterministic no-ops; the message is recorded
    // so this replica, once leader, answers a retry with the real outcome.
    auto err = r->db.Exec(sql);
    scanned = r->db.last_exec_scanned();
    r->applied_wids.emplace(wid, err.has_value() ? err->message : std::string());
  }
  r->applied_lsn = rec.lsn;
  if (r->term_seen < rec.term) {
    r->term_seen = rec.term;
  }
  return scanned;
}

Task<> ReplicatedStore::ApplyLoop(Group& g, Link* link) {
  Replica* f = link->follower;
  while (true) {
    net::Packet pkt = co_await link->ship.Recv();
    std::vector<fs::WalRecord> recs;
    std::vector<std::uint8_t> bytes(pkt.begin(), pkt.end());
    if (!fs::DecodeWalLog(bytes, &recs) || recs.empty()) {
      co_return;
    }
    const fs::WalRecord& rec = recs.front();
    if (rec.lsn == 0) {
      // Shutdown poison: forward it down the ack channel so the leader-side
      // pump exits too, then die.
      co_await link->acks.Send(urpc::Pack(kShutdownTag, std::uint64_t{0}));
      co_return;
    }
    if (machine_.Halted(f->core)) {
      co_return;
    }
    if (rec.term < f->term_seen) {
      // A deposed leader's in-flight ship arriving after the view change that
      // promoted someone else: dropped, never acked. This is the fence that
      // keeps a stale leader from assembling a commit after its term ended.
      ++g.stale_ships;
      continue;
    }
    if (rec.lsn > f->applied_lsn + 1) {
      // Gap: only reachable when faults dropped/fenced earlier ships. Every
      // committed record is in the WAL, so fill from the log (replica-local
      // read on this core), then fall through to the shipped record.
      std::vector<fs::WalRecord> log = co_await g.wal.ReadAll(f->core);
      for (const fs::WalRecord& lr : log) {
        if (lr.lsn >= rec.lsn) {
          break;
        }
        std::uint64_t scanned = ApplyRecord(f, lr);
        co_await machine_.Compute(f->core, ApplyCost(scanned));
      }
    }
    std::uint64_t scanned = ApplyRecord(f, rec);
    co_await machine_.Compute(f->core, ApplyCost(scanned));
    // Ack the current applied lsn — also for dups and still-gapped receipts,
    // so the leader's view converges no matter which path delivered the data.
    co_await link->acks.Send(urpc::Pack(kAckTag, f->applied_lsn));
  }
}

Task<> ReplicatedStore::AckPump(Group& g, Link* link) {
  while (true) {
    urpc::Message msg = co_await link->acks.Recv();
    if (msg.tag == kShutdownTag) {
      co_return;
    }
    std::uint64_t acked = urpc::Unpack<std::uint64_t>(msg);
    if (acked > link->follower->acked_lsn) {
      link->follower->acked_lsn = acked;
    }
    g.commit_ev.Signal();
  }
}

Task<> ReplicatedStore::CatchUp(Group& g, Replica* r) {
  while (true) {
    std::vector<fs::WalRecord> log = co_await g.wal.ReadAll(r->core);
    for (const fs::WalRecord& rec : log) {
      std::uint64_t scanned = ApplyRecord(r, rec);
      co_await machine_.Compute(r->core, ApplyCost(scanned));
    }
    if (r->applied_lsn >= g.last_lsn || !r->alive) {
      break;
    }
    // New records may land while we replay; poll until the gap closes. Only
    // reachable after a kill, so the injector (and its timers) are active.
    (void)co_await g.commit_ev.WaitTimeout(recover::Config().store_catchup_poll);
  }
  if (r->alive) {
    r->caught_up = true;
    ++catchups_;
    g.commit_ev.Signal();  // the leader's commit rule now includes us
  }
}

// --- Membership-driven failover ---

Task<> ReplicatedStore::HandleViewChange(const recover::View& view, int dead_core) {
  for (auto& gp : groups_) {
    Group& g = *gp;
    bool leader_died = false;
    bool any_died = false;
    int dead_slot = -1;
    for (std::size_t slot = 0; slot < g.replicas.size(); ++slot) {
      Replica* r = g.replicas[slot].get();
      if (r->alive && r->core == dead_core) {
        r->alive = false;
        any_died = true;
        dead_slot = static_cast<int>(slot);
        if (static_cast<int>(slot) == g.leader_slot) {
          leader_died = true;
        }
        for (auto& l : g.links) {
          if (l->follower == r) {
            l->active = false;
          }
        }
      }
    }
    if (!any_died) {
      continue;
    }
    if (leader_died) {
      // Promote the most-caught-up live replica: max applied lsn, ties to the
      // lowest slot. By the commit rule no committed write can be missing
      // from it — commit required every caught-up follower's ack.
      int best = -1;
      for (std::size_t slot = 0; slot < g.replicas.size(); ++slot) {
        Replica* r = g.replicas[slot].get();
        if (!r->alive || !r->caught_up) {
          continue;
        }
        if (best < 0 ||
            r->applied_lsn > g.replicas[static_cast<std::size_t>(best)]->applied_lsn) {
          best = static_cast<int>(slot);
        }
      }
      // The dead leader's ships are void either way.
      for (auto& l : g.links) {
        l->active = false;
      }
      if (best < 0) {
        g.commit_ev.Signal();
        continue;  // no live caught-up replica: the shard is down
      }
      // The term *is* the membership epoch: epochs are already agreed on by
      // the survivors and strictly increase, which is exactly what a fencing
      // token needs — no second consensus round required.
      g.term = view.epoch;
      g.leader_slot = best;
      ++g.incarnation;
      ++promotions_;
      Replica* leader = g.replicas[static_cast<std::size_t>(best)].get();
      // Survivors fence the deposed leader's in-flight ships from this
      // instant: anything below the new term is dropped on arrival.
      for (auto& rp : g.replicas) {
        if (rp->alive && rp->term_seen < g.term) {
          rp->term_seen = g.term;
        }
      }
      trace::Emit<trace::Category::kRecover>(
          trace::EventId::kRecoverDbRepoint, machine_.exec().now(),
          g.placement.web_core, static_cast<std::uint64_t>(dead_core),
          static_cast<std::uint64_t>(leader->core));
      // Discard the uncommitted suffix: records beyond the new leader's
      // applied lsn cannot have committed (its own ack was required), and the
      // clients that wrote them will retry under the new term with their
      // original write ids.
      std::int64_t dropped =
          co_await g.wal.TruncateAfter(leader->core, leader->applied_lsn);
      if (dropped > 0) {
        g.truncated += static_cast<std::uint64_t>(dropped);
      }
      g.last_lsn = leader->applied_lsn;
      // Fresh shipping links from the new leader to every live follower.
      for (std::size_t slot = 0; slot < g.replicas.size(); ++slot) {
        Replica* r = g.replicas[slot].get();
        if (static_cast<int>(slot) != best && r->alive) {
          MakeLink(g, r);
        }
      }
    }
    // Respawn the dead replica on the shard's spare core (once): boot image
    // plus WAL replay, gated caught_up until the replay closes the gap.
    if (dead_slot >= 0 && g.placement.spare_core >= 0 && !g.spare_used &&
        g.replicas[static_cast<std::size_t>(g.leader_slot)]->alive) {
      g.spare_used = true;
      g.retired.push_back(std::move(g.replicas[static_cast<std::size_t>(dead_slot)]));
      auto fresh = std::make_unique<Replica>(machine_, g.placement.web_core,
                                             g.placement.spare_core, source_);
      fresh->caught_up = false;
      Replica* r = fresh.get();
      g.replicas[static_cast<std::size_t>(dead_slot)] = std::move(fresh);
      ++respawns_;
      trace::Emit<trace::Category::kRecover>(
          trace::EventId::kRecoverDbRespawn, machine_.exec().now(),
          g.placement.web_core, static_cast<std::uint64_t>(dead_slot),
          static_cast<std::uint64_t>(g.placement.spare_core));
      machine_.exec().Spawn(ServeReplica(g, r));
      MakeLink(g, r);
      machine_.exec().Spawn(CatchUp(g, r));
    }
    // Wake any commit wait: its ack set just changed.
    g.commit_ev.Signal();
  }
  co_return;
}

Task<> ReplicatedStore::Shutdown() {
  for (auto& gp : groups_) {
    Group& g = *gp;
    for (auto& r : g.replicas) {
      co_await SendShutdown(r->requests);
    }
    // Index loop, not a range-for: Send suspends, and a view change during
    // the suspension may push_back onto g.links (iterator invalidation).
    for (std::size_t i = 0; i < g.links.size(); ++i) {
      Link* l = g.links[i].get();
      if (l->active) {
        fs::WalRecord poison;  // lsn 0 = ship poison
        co_await l->ship.Send(EncodeShip(poison));
      }
    }
  }
}

}  // namespace mk::apps
