#include "apps/dbshard.h"

#include <optional>
#include <utility>

#include "apps/sqlrpc.h"
#include "recover/config.h"
#include "trace/trace.h"

namespace mk::apps {
namespace {

// How long a web shard waits for its replica's reply before presuming the
// replica dead and failing over to another live replica. Must exceed the
// slowest legitimate query end-to-end (a full 30k-row TPC-W scan costs
// ~755k cycles on the replica core alone), or healthy replicas get declared
// dead under load.
constexpr sim::Cycles kRpcTimeout = 2'000'000;
// Replica-failover retry budget: distinct replicas a query will try before
// giving up (first attempt included).
constexpr int kMaxAttempts = 3;

}  // namespace

DbReplicaCluster::DbReplicaCluster(hw::Machine& machine, const Database& source,
                                   std::vector<ShardPlacement> placements)
    : machine_(machine), source_(source) {
  shards_.reserve(placements.size());
  for (const ShardPlacement& p : placements) {
    shards_.push_back(std::make_unique<Shard>(machine_, p, source));
  }
  redirect_.resize(shards_.size());
  for (std::size_t i = 0; i < redirect_.size(); ++i) {
    redirect_[i] = static_cast<int>(i);
  }
  dead_.assign(shards_.size(), false);
  incarnation_.assign(shards_.size(), 0);
}

Task<> DbReplicaCluster::Serve(int shard) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  while (true) {
    std::optional<std::string> sql = co_await RecvSql(s.queries);
    if (!sql.has_value()) {
      co_return;
    }
    // Fail-stop: a replica on a halted core dies with its request in hand —
    // no reply, no accounting; the client's bounded reply wait recovers.
    if (machine_.Halted(s.placement.db_core)) {
      co_return;
    }
    // Parse + per-row scan cost on this shard's own core, paid in parallel
    // across replicas.
    std::string rendered = co_await ServeQuery(machine_, s.placement.db_core, s.db, *sql);
    ++s.served;
    co_await s.replies.Send(
        net::Packet(rendered.begin(), rendered.end()));
  }
}

Task<std::string> DbReplicaCluster::Query(int shard, std::string sql) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const int target = redirect_[static_cast<std::size_t>(shard)];
    if (target < 0) {
      break;  // no live replica anywhere
    }
    const std::uint64_t inc = incarnation_[static_cast<std::size_t>(target)];
    Shard& s = *shards_[static_cast<std::size_t>(target)];
    if (!s.caught_up) {
      // Respawn in flight: the replacement's database is still the stale
      // construction-time snapshot. Wait for the state transfer instead of
      // serving empty/old rows, then re-resolve — redirect and incarnation
      // may both have moved while we slept. Only reachable under fault
      // injection (plain runs never respawn), so the extra wakeup cannot
      // perturb a fault-free schedule.
      co_await s.catch_up.Wait();
      continue;
    }
    co_await s.rpc_slot.Acquire();
    co_await SendSql(s.queries, sql);
    std::optional<net::Packet> reply =
        co_await s.replies.RecvTimeout(recover::Bound(kRpcTimeout));
    s.rpc_slot.Release();
    if (reply.has_value()) {
      co_return std::string(reply->begin(), reply->end());
    }
    // Reply timeout: the replica is gone (or unreachably slow — same thing to
    // a fail-stop client). Mark it dead and re-point this shard at the
    // nearest following live replica; a stale late reply is harmless because
    // a dead replica's channels are never used again (Respawn installs fresh
    // ones). A wait that started against a since-respawned incarnation says
    // nothing about the replacement — just retry at the current redirect.
    ++failover_timeouts_;
    if (incarnation_[static_cast<std::size_t>(target)] != inc) {
      continue;
    }
    dead_[static_cast<std::size_t>(target)] = true;
    const int next = FirstLiveReplica(shard);
    if (next < 0) {
      break;
    }
    redirect_[static_cast<std::size_t>(shard)] = next;
    trace::Emit<trace::Category::kRecover>(
        trace::EventId::kRecoverDbRepoint, machine_.exec().now(),
        shards_[static_cast<std::size_t>(shard)]->placement.web_core,
        static_cast<std::uint64_t>(target), static_cast<std::uint64_t>(next));
  }
  co_return "error: replica failover exhausted";
}

Task<> DbReplicaCluster::Shutdown() {
  for (auto& s : shards_) {
    co_await SendShutdown(s->queries);
  }
}

int DbReplicaCluster::FirstLiveReplica(int from) const {
  const int n = num_shards();
  for (int i = 0; i < n; ++i) {
    const int cand = (from + i) % n;
    if (!dead_[static_cast<std::size_t>(cand)]) {
      return cand;
    }
  }
  return -1;
}

std::vector<int> DbReplicaCluster::HandleCoreFailure(int dead_core) {
  for (std::size_t r = 0; r < shards_.size(); ++r) {
    if (shards_[r]->placement.db_core == dead_core) {
      dead_[r] = true;
    }
  }
  std::vector<int> changed;
  for (int s = 0; s < num_shards(); ++s) {
    const int cur = redirect_[static_cast<std::size_t>(s)];
    if (cur >= 0 && !dead_[static_cast<std::size_t>(cur)]) {
      continue;
    }
    const int next = FirstLiveReplica(s);
    if (next == cur) {
      continue;
    }
    redirect_[static_cast<std::size_t>(s)] = next;
    if (next >= 0) {
      trace::Emit<trace::Category::kRecover>(
          trace::EventId::kRecoverDbRepoint, machine_.exec().now(),
          shards_[static_cast<std::size_t>(s)]->placement.web_core,
          static_cast<std::uint64_t>(cur), static_cast<std::uint64_t>(next));
    }
    changed.push_back(s);
  }
  return changed;
}

Task<bool> DbReplicaCluster::Respawn(int shard, int spare_db_core) {
  const auto idx = static_cast<std::size_t>(shard);
  if (!dead_[idx]) {
    co_return false;  // nothing to replace
  }
  int donor = redirect_[idx];
  if (donor < 0 || dead_[static_cast<std::size_t>(donor)]) {
    donor = FirstLiveReplica(shard);
  }
  if (donor < 0) {
    co_return false;  // no live replica left to stream from
  }
  // The donor's Shard object is address-stable even if the donor is retired
  // mid-transfer (unique_ptr moves keep the pointee), so pin it up front.
  Shard& donor_s = *shards_[static_cast<std::size_t>(donor)];
  // Install the replacement immediately, but gated: it opens with the stale
  // construction-time snapshot and caught_up=false, so a query re-routed here
  // mid-transfer (e.g. the donor dies too) waits on catch_up instead of
  // reading rows the transfer hasn't delivered. Redirect keeps pointing at
  // the donor until the transfer lands — availability is unchanged.
  retired_.push_back(std::move(shards_[idx]));
  ShardPlacement p = retired_.back()->placement;
  p.db_core = spare_db_core;
  shards_[idx] = std::make_unique<Shard>(machine_, p, source_);
  Shard& fresh = *shards_[idx];
  fresh.caught_up = false;
  dead_[idx] = false;
  ++incarnation_[idx];
  // State transfer, charged like monitor hotplug catch-up (OnlineCore):
  // posted writes at the donor's DB core, read back at the spare. 64 bytes
  // per row stands in for the row image. Sized from the donor's *live*
  // replica — the construction-time source_ says nothing about rows the
  // donor gained since boot.
  const std::uint64_t bytes = (donor_s.db.TotalRows() + 1) * 64;
  hw::LineRegion buf(machine_.mem(), machine_.topo().PackageOf(spare_db_core),
                     sim::LinesCovering(0, bytes));
  co_await machine_.mem().WritePosted(donor_s.placement.db_core, buf.base(), bytes);
  co_await machine_.mem().Read(spare_db_core, buf.base(), bytes);
  // Only now does the replacement hold real data: copy the donor's live
  // database (the old code copied source_, silently resurrecting the boot
  // image), open the gate, and point the shard home again.
  fresh.db = donor_s.db;
  fresh.caught_up = true;
  fresh.catch_up.Signal();
  redirect_[idx] = shard;  // point home again
  ++respawns_;
  trace::Emit<trace::Category::kRecover>(
      trace::EventId::kRecoverDbRespawn, machine_.exec().now(), p.web_core,
      static_cast<std::uint64_t>(shard), static_cast<std::uint64_t>(spare_db_core));
  co_return true;
}

}  // namespace mk::apps
