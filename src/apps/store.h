// Partitioned read-write store: the write path dbshard never had.
//
// DbReplicaCluster scales *reads* by giving every shard a read-only replica;
// production traffic writes. ReplicatedStore extends the same placement idea
// to a leader/follower group per shard:
//
//   web core ──urpc/PacketChannel──► leader replica ──ship──► follower(s)
//                                        │ WAL append (fs::ReplicatedFs
//                                        ▼  one-phase collective)
//                                    replicated log
//
// A write (client-unique write id + SQL) reaches the shard's leader, which
// 1. dedups by write id (a retry of a committed-but-unacked write answers
//    "dup", never applies twice),
// 2. appends [lsn | term | wid sql] to the shard's WAL — a replicated-fs
//    mutation, so completion means the record is durable on every online
//    core's fs replica,
// 3. applies locally and ships the record to each live follower over a
//    PacketChannel,
// 4. acks the client only after every caught-up follower has acked its
//    applied lsn back over URPC (commit = follower durability).
//
// Failover reuses recover::MembershipService: when a view change reports a
// dead replica core, the most-caught-up live replica (max applied lsn, ties
// to the lowest slot) is promoted, the group's term becomes the membership
// epoch, and the new leader truncates the WAL suffix beyond its applied lsn
// (records that could not have committed, by the commit rule). Terms fence
// stale leaders twice over: a deposed leader's in-flight ships carry an old
// term and are dropped by survivors, and its serve loop re-checks the term
// before acking (fail-stop halting already cut the reply path — the term
// check is the logical-supersession net). A dead replica is respawned on the
// shard's spare core from the boot image plus WAL replay, gated caught_up
// like DbReplicaCluster's respawn.
//
// Reads are served by the leader (leader-local, so they always observe every
// committed write); the browse side of the TPC-W mix rides the same channel
// pair, framing, rendering and costs dbshard uses (apps/sqlrpc.h).
#ifndef MK_APPS_STORE_H_
#define MK_APPS_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "fs/wal.h"
#include "hw/machine.h"
#include "net/packet_channel.h"
#include "recover/recover.h"
#include "sim/event.h"
#include "sim/task.h"
#include "urpc/channel.h"

namespace mk::apps {

using sim::Cycles;
using sim::Task;

// One shard's serving group: the web core that fronts it, the replica cores
// (slot 0 boots as leader), and a spare for respawn after a kill.
struct StorePlacement {
  int web_core = 0;
  std::vector<int> replica_cores;
  int spare_core = -1;
};

class ReplicatedStore {
 public:
  // `source` is the boot image every replica starts from (populate the TPC-W
  // tables before constructing); WAL replay reproduces everything after boot.
  // Each shard's WAL path is picked so its fs sequencer is the shard's web
  // core — a core the replica-kill fault plans never touch, keeping the log's
  // ordering authority alive across failover (see DESIGN.md §13).
  ReplicatedStore(hw::Machine& machine, fs::ReplicatedFs& fs, const Database& source,
                  std::vector<StorePlacement> placements);

  // Creates the WAL files (one replicated-fs collective per shard) and spawns
  // every serve loop and replication pump. Call once after boot.
  Task<> Start();

  int num_shards() const { return static_cast<int>(groups_.size()); }
  const StorePlacement& placement(int shard) const {
    return groups_[static_cast<std::size_t>(shard)]->placement;
  }

  // Web-side read: runs `sql` on the shard's current leader, returns rendered
  // rows. Leader-local reads observe every committed write.
  Task<std::string> Query(int shard, std::string sql);

  // Web-side write: executes `sql` under client write id `wid`. Retries of
  // the same logical write MUST reuse `wid`; a write that committed but lost
  // its ack answers "dup" instead of applying twice. Returns "ok <lsn>",
  // "dup", or "error: ...".
  Task<std::string> Execute(int shard, std::uint64_t wid, std::string sql);

  // Membership subscriber body: marks dead replicas, promotes on leader
  // death, respawns onto the spare. Wire it up as
  //   membership.Subscribe([&](const recover::View& v, int dead) {
  //     return store.HandleViewChange(v, dead); });
  Task<> HandleViewChange(const recover::View& view, int dead_core);

  // Poisons every serve loop and replication pump.
  Task<> Shutdown();

  // --- Introspection (bench ledger + tests) ---
  int leader_slot(int shard) const { return group(shard).leader_slot; }
  std::uint64_t term(int shard) const { return group(shard).term; }
  std::uint64_t last_lsn(int shard) const { return group(shard).last_lsn; }
  std::uint64_t incarnation(int shard) const { return group(shard).incarnation; }
  std::uint64_t reads_served(int shard) const { return group(shard).reads_served; }
  std::uint64_t writes_committed(int shard) const { return group(shard).writes_committed; }
  std::uint64_t writes_dup(int shard) const { return group(shard).writes_dup; }
  std::uint64_t writes_rejected(int shard) const { return group(shard).writes_rejected; }
  std::uint64_t writes_fenced(int shard) const { return group(shard).writes_fenced; }
  std::uint64_t records_shipped(int shard) const { return group(shard).records_shipped; }
  std::uint64_t stale_ships(int shard) const { return group(shard).stale_ships; }
  std::uint64_t truncated_records(int shard) const { return group(shard).truncated; }
  std::uint64_t rpc_timeouts() const { return rpc_timeouts_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t respawns() const { return respawns_; }
  std::uint64_t catchups() const { return catchups_; }

  int num_slots(int shard) const {
    return static_cast<int>(group(shard).replicas.size());
  }
  bool replica_alive(int shard, int slot) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->alive;
  }
  bool replica_caught_up(int shard, int slot) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->caught_up;
  }
  std::uint64_t replica_applied_lsn(int shard, int slot) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->applied_lsn;
  }
  std::size_t replica_table_rows(int shard, int slot, const std::string& table) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->db.TableRows(table);
  }
  std::size_t replica_distinct_wids(int shard, int slot) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->applied_wids.size();
  }
  int replica_core(int shard, int slot) const {
    return group(shard).replicas[static_cast<std::size_t>(slot)]->core;
  }

  // Test hook: force a term bump so the pre-ack fence trips without waiting
  // for a real view change (exercises "a stale leader never acks").
  void ForceTermBumpForTest(int shard) {
    Group& g = *groups_[static_cast<std::size_t>(shard)];
    ++g.term;
    g.commit_ev.Signal();
  }

 private:
  struct Replica {
    Replica(hw::Machine& m, int web_core, int core_in, const Database& src)
        : core(core_in), db(src), requests(m, web_core, core_in),
          replies(m, core_in, web_core) {}
    int core;
    Database db;
    std::uint64_t applied_lsn = 0;
    std::uint64_t acked_lsn = 0;   // leader-side view of this follower
    std::uint64_t term_seen = 0;   // fences out deposed leaders' late ships
    // Write-id dedup (a unique index), recording each write's engine outcome
    // ("" = applied, else the deterministic rejection message) so a retry of
    // a rejected write replays the error instead of claiming "dup" — like
    // ramfs's AppliedMark answers a redelivery with the recorded result.
    std::map<std::uint64_t, std::string> applied_wids;
    bool alive = true;
    bool caught_up = true;  // false while a respawn replays the WAL
    urpc::Channel requests;
    net::PacketChannel replies;
  };

  // A shipping pair for one (leader, follower) assignment. Links are never
  // destroyed while the store lives (parked pumps reference them); a
  // superseded link is just deactivated.
  struct Link {
    Link(hw::Machine& m, int leader_core, Replica* f)
        : follower(f), ship(m, leader_core, f->core),
          acks(m, f->core, leader_core) {}
    Replica* follower;
    bool active = true;
    net::PacketChannel ship;
    urpc::Channel acks;
  };

  struct Group {
    Group(hw::Machine& m, StorePlacement p, fs::ReplicatedFs& fs, std::string wal_path)
        : placement(std::move(p)), wal(fs, std::move(wal_path)), rpc_slot(m.exec(), 1),
          commit_ev(m.exec()) {}
    StorePlacement placement;
    fs::Wal wal;
    std::vector<std::unique_ptr<Replica>> replicas;  // slot-indexed
    std::vector<std::unique_ptr<Replica>> retired;   // respawn keeps the dead alive
    std::vector<std::unique_ptr<Link>> links;
    int leader_slot = 0;
    std::uint64_t term = 0;      // membership epoch at last promotion (0 at boot)
    std::uint64_t last_lsn = 0;  // leader's last assigned lsn
    std::uint64_t incarnation = 0;
    bool spare_used = false;
    // Request nonce: replies carry it back so a web-side retry (its first
    // attempt timed out while the leader's commit stalled) can discard the
    // late reply to the superseded attempt instead of mis-pairing it.
    std::uint64_t req_nonce = 0;
    sim::Semaphore rpc_slot;  // one outstanding web RPC per shard
    sim::Event commit_ev;     // ack progress / membership change wakeups
    std::uint64_t reads_served = 0;
    std::uint64_t writes_committed = 0;
    std::uint64_t writes_dup = 0;
    std::uint64_t writes_rejected = 0;
    std::uint64_t writes_fenced = 0;
    std::uint64_t records_shipped = 0;
    std::uint64_t stale_ships = 0;
    std::uint64_t truncated = 0;
  };

  const Group& group(int shard) const { return *groups_[static_cast<std::size_t>(shard)]; }

  // One replica's server loop (web-facing requests). Bound to the Replica
  // object, not the slot: a respawn spawns a fresh loop for the new object.
  Task<> ServeReplica(Group& g, Replica* r);
  Task<std::string> HandleWrite(Group& g, Replica* r, std::uint64_t wid,
                                const std::string& sql);
  // Follower-side: receives shipped records, applies in lsn order (gap-fill
  // from the WAL), acks its applied lsn.
  Task<> ApplyLoop(Group& g, Link* link);
  // Leader-side: drains follower acks, advances acked_lsn, wakes commits.
  Task<> AckPump(Group& g, Link* link);
  // Respawned-replica WAL replay until it reaches the leader's last lsn.
  Task<> CatchUp(Group& g, Replica* r);

  // Applies one record if it is next in lsn order; a skipped record changes
  // nothing. Host-side only — no awaits between the check and the state
  // update, so concurrent apply paths cannot interleave.
  static void ApplyRecord(Replica* r, const fs::WalRecord& rec);

  void MakeLink(Group& g, Replica* follower);
  Task<std::string> RoundTrip(Group& g, bool is_write, std::uint64_t wid,
                              const std::string& sql);

  hw::Machine& machine_;
  fs::ReplicatedFs& fs_;
  Database source_;  // boot image (respawn base; WAL replay rebuilds the rest)
  std::vector<std::unique_ptr<Group>> groups_;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t respawns_ = 0;
  std::uint64_t catchups_ = 0;
};

}  // namespace mk::apps

#endif  // MK_APPS_STORE_H_
