// Read-write partitioned store under a TPC-W-like browse-buy mix.
//
// sec54_failover scales and fails over a *read-only* data tier; this bench
// drives the read-write one (apps/store): per-shard leader/follower replica
// groups, a WAL on the replicated fs, leader->follower log shipping, and
// commit only after follower durability. The browse leg (80%) is the TPC-W
// item-detail SELECT served leader-locally; the buy leg (20%) is an INSERT
// into a per-shard orders partition, routed by client write id (wid % shards)
// so retries at any layer land on the same group and dedup exactly-once.
//
// The committed-work ledger is exact: every acked buy ("ok <lsn>" or "dup")
// inserted exactly one orders row on its group's leader, every live caught-up
// follower holds the same rows and the same distinct-wid set, and rows can
// exceed acks only by writes that committed while their HTTP ack was lost to
// a fault (bounded by the shed count). Lost writes and double-applied writes
// are both ledger violations.
//
// Modes:
//   (none)            no-fault shard sweep 1/2/4; deterministic (golden)
//   --kill-leader[=K] halt shard K's leader replica core at t0+4M; the
//                     most-caught-up follower is promoted (term = membership
//                     epoch), the WAL suffix is truncated, a replacement
//                     respawns on the spare and catches up from the log;
//                     throughput recovers within a printed window and the
//                     run replays bit-identically
//   --chaos-seed=N    1-2 seeded replica kills (leader or follower, distinct
//                     shards) composed with random NIC frame loss and an
//                     interconnect latency spike; invariants, not thresholds
//   --quick           4x4 machine, 2 shards, shorter run (CI soak)
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/store.h"
#include "bench_util.h"
#include "fault/fault.h"
#include "fs/ramfs.h"
#include "fs/wal.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "recover/config.h"
#include "recover/recover.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/random.h"

namespace mk {
namespace {

using sim::Cycles;
using sim::Task;

// Smaller catalog than sec54 (8k items, ~200k-cycle browse scan) so the
// leader core has headroom for the write path on top of the read mix.
constexpr int kDbItems = 8000;
constexpr Cycles kKillOffset = 4'000'000;
constexpr Cycles kBucket = 2'000'000;

// One scheduled fail-stop kill of a replica core. slot 0 is the boot leader,
// slot 1 the follower. Web cores are never killed here: a shard's web core is
// its WAL's fs sequencer (the log's ordering authority), and web-core
// failover is sec54_failover's story — this bench isolates the data tier's.
struct Kill {
  int shard = 0;
  int slot = 0;
  Cycles at = kKillOffset;
};

// Chaos extras composed with the kills, offsets relative to t0.
struct ExtraFaults {
  double rx_loss = 0;
  double tx_loss = 0;
  std::uint64_t seed = 0;
  Cycles link_spike_extra = 0;
  Cycles link_spike_at = 0;
};

// Offered load sits well below the leader core's capacity (the browse scan
// costs ~205k cycles; at 400k/shard and 80% browse the leader runs ~45%
// utilized including the write path), leaving recovery headroom: a promoted
// follower must absorb the backlog the outage queued.
constexpr bench::Mix kStoreMix{.interval_per_shard = 400'000,
                               .attempt_timeout = 8'000'000,
                               .request_deadline = 30'000'000};

// The buy leg's ledger, kept by the request source: launches per owning
// shard when a buy is made, acks when its response arrives.
struct Buys {
  explicit Buys(int shards)
      : acked_per_shard(static_cast<std::size_t>(shards), 0),
        per_shard(static_cast<std::size_t>(shards), 0) {}
  std::uint64_t next_wid = 0;
  int launched = 0;
  int acked = 0;    // body was "ok <lsn>" or "dup"
  int errored = 0;  // HTTP 200 but the store reported an error
  std::vector<int> acked_per_shard;
  std::vector<int> per_shard;
};

// The browse-buy mix: 80% browse (the TPC-W item-detail SELECT), 20% buy
// (an INSERT routed by client write id). A retried buy re-sends the same URL
// — the same wid — which is what makes the end-to-end path exactly-once: the
// store answers "dup" for a write that committed before its ack was lost.
bench::RequestSource BrowseBuy(int shards, Buys& buys) {
  return [shards, &buys, browse = bench::TpcwBrowse(kDbItems)](sim::Rng& prng) {
    if (prng.Below(5) != 0) {
      return browse(prng);
    }
    const std::uint64_t wid = ++buys.next_wid;
    const int item = static_cast<int>(prng.Below(kDbItems));
    const int qty = 1 + static_cast<int>(prng.Below(5));
    const int owner = static_cast<int>(wid % static_cast<std::uint64_t>(shards));
    ++buys.launched;
    ++buys.per_shard[static_cast<std::size_t>(owner)];
    const std::string sql = "INSERT INTO orders VALUES (" + std::to_string(wid) +
                            ", " + std::to_string(item) + ", " +
                            std::to_string(qty) + ")";
    return bench::Request{
        "/buy?wid=" + std::to_string(wid) + "&sql=" + bench::FormEncode(sql),
        [&buys, owner](const std::string& body) {
          if (body.rfind("ok ", 0) == 0 || body == "dup") {
            ++buys.acked;
            ++buys.acked_per_shard[static_cast<std::size_t>(owner)];
          } else {
            ++buys.errored;
          }
        }};
  };
}

struct ShardLedger {
  std::uint64_t leader_rows = 0;
  std::uint64_t leader_wids = 0;
  int acked = 0;
  int buys = 0;
  bool replicas_agree = true;  // rows and wid sets equal on live caught-up replicas
};

struct RunOutput {
  Cycles t0 = 0;
  Cycles final_now = 0;
  std::uint64_t events = 0;
  bench::Ledger load;
  int buys_launched = 0;
  int buys_acked = 0;
  int buys_errored = 0;
  std::vector<ShardLedger> ledger;
  std::uint64_t view_changes = 0;
  std::uint64_t epoch = 1;
  Cycles first_view_change_at = 0;
  std::uint64_t promotions = 0;
  std::uint64_t respawns = 0;
  std::uint64_t catchups = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t stale_ships = 0;
  std::uint64_t truncated = 0;
  std::uint64_t fenced = 0;
  std::uint64_t shipped = 0;
  std::uint64_t wal_redeliveries = 0;
  bool fs_consistent = true;
  bool monitors_quiesced = true;
  bool specs_activated = true;
};

RunOutput RunServing(const hw::PlatformSpec& spec, int shards, const bench::Mix& mix,
                     const std::vector<Kill>& kills, const ExtraFaults* extra,
                     int requests_per_shard, bool print_activations) {
  recover::ScopedRecoveryConfig scoped_rcfg(bench::ServingRecoveryConfig());
  bench::System s(spec);
  sim::Executor& exec = s.exec;
  hw::Machine& m = s.machine;

  // Shard i: web core 4i fronts it, replicas on 4i+1 (boot leader) and 4i+2
  // (follower), spare 4i+3 for respawn. The web core doubles as the shard's
  // WAL sequencer — PickPath pins it there — so the log's ordering authority
  // survives every replica kill by construction.
  std::vector<apps::StorePlacement> placements;
  for (int i = 0; i < shards; ++i) {
    placements.push_back({4 * i, {4 * i + 1, 4 * i + 2}, 4 * i + 3});
  }

  fs::ReplicatedFs fs(s.sys);
  apps::Database source;
  apps::PopulateTpcw(&source, kDbItems);
  source.Exec("CREATE TABLE orders (o_wid INT, o_item INT, o_qty INT)");
  apps::ReplicatedStore store(m, fs, source, placements);
  // Create the WALs and spawn the replica groups, then drain: serving must
  // not race the log files into existence.
  exec.Spawn(store.Start());
  exec.Run();
  const Cycles t0 = exec.now();

  std::unique_ptr<fault::Injector> inj;
  if (!kills.empty()) {
    fault::FaultPlan plan;
    for (const Kill& k : kills) {
      const auto& p = placements[static_cast<std::size_t>(k.shard)];
      plan.HaltCore(p.replica_cores[static_cast<std::size_t>(k.slot)], t0 + k.at);
    }
    if (extra != nullptr) {
      if (extra->rx_loss > 0) {
        plan.RandomRxLoss(extra->rx_loss, extra->seed ^ 0x9e3779b97f4a7c15ull, t0);
      }
      if (extra->tx_loss > 0) {
        plan.RandomTxLoss(extra->tx_loss, extra->seed ^ 0xc2b2ae3d27d4eb4full, t0);
      }
      if (extra->link_spike_extra > 0) {
        plan.LinkSpike(extra->link_spike_extra, t0 + extra->link_spike_at,
                       fault::kForever);
      }
    }
    inj = std::make_unique<fault::Injector>(plan);
    inj->Install();
    exec.Spawn(s.sys.HeartbeatLoop());
  }

  net::SimNic::Config cfg;
  cfg.rx_descs = 4096;
  cfg.tx_descs = 4096;
  cfg.reta_slots = 16 * shards;
  bench::Fleet fleet(m, shards, cfg);
  for (int i = 0; i < shards; ++i) {
    // Browse: leader-local read on this web core's own shard. Buy: routed by
    // wid to its partition's group — the owner web core's channels carry it,
    // standing in for an intra-fleet forward to the partition home.
    fleet.AddShard(
        {.query = [&store, i](std::string sql) -> Task<std::string> {
           co_return co_await store.Query(i, std::move(sql));
         },
         .exec = [&store, shards](std::uint64_t wid, std::string sql) -> Task<std::string> {
           const int owner = static_cast<int>(wid % static_cast<std::uint64_t>(shards));
           co_return co_await store.Execute(owner, wid, std::move(sql));
         },
         .admission = {/*workers=*/8, /*max_pending=*/32,
                       /*queue_deadline=*/5'000'000}});
  }

  recover::MembershipService membership(s.sys);
  Cycles first_view_change_at = 0;
  membership.Subscribe(
      [&](const recover::View& view, int dead_core) -> Task<> {
        if (first_view_change_at == 0) {
          first_view_change_at = exec.now() - t0;
        }
        co_await store.HandleViewChange(view, dead_core);
      });

  Buys buys(shards);
  bench::Ledger load = fleet.Run(requests_per_shard, mix, BrowseBuy(shards, buys),
                                 [&]() -> Task<> {
                                   co_await store.Shutdown();
                                   s.sys.Shutdown();
                                 });

  RunOutput out;
  out.t0 = t0;
  out.final_now = exec.now();
  out.events = exec.events_dispatched();
  out.load = std::move(load);
  out.buys_launched = buys.launched;
  out.buys_acked = buys.acked;
  out.buys_errored = buys.errored;
  for (int i = 0; i < shards; ++i) {
    ShardLedger lg;
    lg.acked = buys.acked_per_shard[static_cast<std::size_t>(i)];
    lg.buys = buys.per_shard[static_cast<std::size_t>(i)];
    const int leader = store.leader_slot(i);
    lg.leader_rows = store.replica_table_rows(i, leader, "ORDERS");
    lg.leader_wids = store.replica_distinct_wids(i, leader);
    for (int slot = 0; slot < store.num_slots(i); ++slot) {
      if (!store.replica_alive(i, slot) || !store.replica_caught_up(i, slot)) {
        continue;
      }
      if (store.replica_table_rows(i, slot, "ORDERS") != lg.leader_rows ||
          store.replica_distinct_wids(i, slot) != lg.leader_wids) {
        lg.replicas_agree = false;
      }
    }
    out.ledger.push_back(lg);
  }
  out.view_changes = membership.view_changes_committed();
  out.epoch = membership.view().epoch;
  out.first_view_change_at = first_view_change_at;
  out.promotions = store.promotions();
  out.respawns = store.respawns();
  out.catchups = store.catchups();
  out.rpc_timeouts = store.rpc_timeouts();
  for (int i = 0; i < shards; ++i) {
    out.stale_ships += store.stale_ships(i);
    out.truncated += store.truncated_records(i);
    out.fenced += store.writes_fenced(i);
    out.shipped += store.records_shipped(i);
  }
  out.wal_redeliveries = fs.redeliveries();
  out.fs_consistent = fs.ReplicasConsistent() && s.sys.LiveReplicasConsistent();
  for (int c = 0; c < s.sys.num_cores(); ++c) {
    if (s.sys.IsOnline(c) && s.sys.on(c).inflight_ops() != 0) {
      out.monitors_quiesced = false;
    }
  }
  if (inj != nullptr) {
    if (print_activations) {
      inj->PrintActivationTable();
    }
    out.specs_activated = inj->AllSpecsActivated();
    inj->Uninstall();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

bool SameRun(const RunOutput& a, const RunOutput& b) {
  if (a.ledger.size() != b.ledger.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ledger.size(); ++i) {
    if (a.ledger[i].leader_rows != b.ledger[i].leader_rows ||
        a.ledger[i].leader_wids != b.ledger[i].leader_wids ||
        a.ledger[i].acked != b.ledger[i].acked) {
      return false;
    }
  }
  return a.final_now == b.final_now && a.events == b.events && a.load == b.load &&
         a.buys_acked == b.buys_acked && a.view_changes == b.view_changes &&
         a.promotions == b.promotions && a.respawns == b.respawns &&
         a.rpc_timeouts == b.rpc_timeouts && a.truncated == b.truncated;
}

// Nearest-index percentile. bench::Percentile takes the floor index instead;
// switching this bench to it moves its p99 column.
Cycles NearestPercentile(std::vector<Cycles> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// The exact-ledger verdict, printed in every mode. `exact` (no-fault runs)
// demands rows == acks; fault runs allow rows to exceed acks by writes whose
// commit outran their lost HTTP ack, bounded by the request shed count.
bool CheckLedger(const RunOutput& r, bool exact, bool print) {
  bool ok = true;
  std::uint64_t total_rows = 0;
  for (std::size_t i = 0; i < r.ledger.size(); ++i) {
    const ShardLedger& lg = r.ledger[i];
    total_rows += lg.leader_rows;
    const bool rows_match_wids = lg.leader_rows == lg.leader_wids;
    const bool bounded =
        lg.leader_rows >= static_cast<std::uint64_t>(lg.acked) &&
        lg.leader_rows <= static_cast<std::uint64_t>(lg.buys);
    const bool exact_ok = !exact || lg.leader_rows == static_cast<std::uint64_t>(lg.acked);
    if (print) {
      std::printf("  shard %zu: %llu rows, %llu wids, %d acked / %d buys, "
                  "replicas %s\n",
                  i, static_cast<unsigned long long>(lg.leader_rows),
                  static_cast<unsigned long long>(lg.leader_wids), lg.acked,
                  lg.buys, lg.replicas_agree ? "agree" : "DIVERGED");
    }
    ok = ok && rows_match_wids && bounded && exact_ok && lg.replicas_agree;
  }
  if (print) {
    std::printf("%-26s %llu rows == %d acked buys%s\n", "write ledger:",
                static_cast<unsigned long long>(total_rows), r.buys_acked,
                exact ? "" : " (+ committed-but-unacked, bounded by sheds)");
  }
  return ok;
}

void PrintCounters(const RunOutput& r) {
  std::printf("%-26s %d launched, %d completed, %d shed, %d retries\n",
              "requests:", r.load.launched, r.load.completed, r.load.shed,
              r.load.retries);
  std::printf("%-26s %d launched, %d acked, %d store-errored\n",
              "buys:", r.buys_launched, r.buys_acked, r.buys_errored);
  std::printf("%-26s mean %.0f, p99 %llu cycles\n", "latency:",
              r.load.latencies.empty()
                  ? 0.0
                  : static_cast<double>(
                        [&] {
                          Cycles s = 0;
                          for (Cycles c : r.load.latencies) {
                            s += c;
                          }
                          return s;
                        }()) /
                        static_cast<double>(r.load.latencies.size()),
              static_cast<unsigned long long>(NearestPercentile(r.load.latencies, 0.99)));
  std::printf("%-26s %llu shipped, %llu stale dropped, %llu truncated, "
              "%llu fenced, %llu WAL redeliveries\n",
              "replication:", static_cast<unsigned long long>(r.shipped),
              static_cast<unsigned long long>(r.stale_ships),
              static_cast<unsigned long long>(r.truncated),
              static_cast<unsigned long long>(r.fenced),
              static_cast<unsigned long long>(r.wal_redeliveries));
  std::printf("%-26s %llu committed (epoch %llu), %llu promotions, "
              "%llu respawns, %llu catch-ups, %llu rpc timeouts\n",
              "failover:", static_cast<unsigned long long>(r.view_changes),
              static_cast<unsigned long long>(r.epoch),
              static_cast<unsigned long long>(r.promotions),
              static_cast<unsigned long long>(r.respawns),
              static_cast<unsigned long long>(r.catchups),
              static_cast<unsigned long long>(r.rpc_timeouts));
}

// ---------------------------------------------------------------------------
// Modes

int RunSweep(bench::TraceSession& session, bool quick) {
  bench::PrintHeader(
      quick ? "Read-write store: browse-buy mix, shard sweep on 4x4 AMD (quick)"
            : "Read-write store: browse-buy mix, shard sweep on 8x4 AMD");
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  const std::vector<int> sweep = quick ? std::vector<int>{1, 2}
                                       : std::vector<int>{1, 2, 4};
  const int rps = quick ? 48 : 64;
  bench::SeriesTable table("shards");
  table.AddSeries("requests");
  table.AddSeries("buys acked");
  table.AddSeries("req/Mcycle");
  table.AddSeries("p99 (k)");
  bool ok = true;
  for (int shards : sweep) {
    session.BeginRun("sweep-" + std::to_string(shards));
    RunOutput r = RunServing(spec, shards, kStoreMix, {}, nullptr, rps,
                             /*print_activations=*/false);
    const double span = static_cast<double>(r.final_now - r.t0);
    table.AddRow(shards,
                 {static_cast<double>(r.load.completed),
                  static_cast<double>(r.buys_acked),
                  static_cast<double>(r.load.completed) / (span / 1e6),
                  static_cast<double>(NearestPercentile(r.load.latencies, 0.99)) / 1e3});
    // Clean-run rules: every request served, the ledger exact, and none of
    // the recovery machinery so much as breathed.
    const bool clean = r.load.completed == r.load.launched && r.load.shed == 0 &&
                       r.buys_errored == 0 && r.view_changes == 0 &&
                       r.promotions == 0 && r.respawns == 0 &&
                       r.rpc_timeouts == 0 && r.wal_redeliveries == 0 &&
                       r.fenced == 0 && r.stale_ships == 0 &&
                       CheckLedger(r, /*exact=*/true, /*print=*/false) &&
                       r.fs_consistent && r.monitors_quiesced;
    if (!clean) {
      std::printf("shard count %d: CLEAN-RUN VIOLATION\n", shards);
      PrintCounters(r);
      CheckLedger(r, /*exact=*/true, /*print=*/true);
    }
    ok = ok && clean;
  }
  table.Print("%12.1f");
  std::printf("%-26s %s\n", "clean sweep:",
              ok ? "every shard count served all requests with an exact ledger"
                 : "VIOLATIONS ABOVE");
  return ok ? 0 : 1;
}

int RunKillLeader(bench::TraceSession& session, bool quick, int shard) {
  const int shards = quick ? 2 : 4;
  const int rps = quick ? 48 : 64;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr, "--kill-leader=%d out of range (0..%d)\n", shard,
                 shards - 1);
    return 2;
  }
  bench::PrintHeader("Read-write store: kill shard " + std::to_string(shard) +
                     "'s leader replica (core " + std::to_string(4 * shard + 1) +
                     ") at t0+" + std::to_string(kKillOffset) + ", " +
                     std::to_string(shards) + " shards");
  const std::vector<Kill> kills = {{shard, /*slot=*/0, kKillOffset}};
  session.BeginRun("kill-leader-run1");
  RunOutput a = RunServing(spec, shards, kStoreMix, kills, nullptr, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-leader-run2");
  RunOutput b = RunServing(spec, shards, kStoreMix, kills, nullptr, rps,
                           /*print_activations=*/false);

  const Cycles window = static_cast<Cycles>(rps) * kStoreMix.interval_per_shard;
  const std::vector<int> buckets =
      bench::Bucketize(a.load.completions, a.t0, window, kBucket);
  bench::PrintBuckets(buckets, kBucket, " (t0 = serving start)");
  PrintCounters(a);
  const bool ledger_ok = CheckLedger(a, /*exact=*/false, /*print=*/true);

  // Same mean-based recovery rule as sec54_failover. 7/8 is stricter than
  // the (N-1)/N floor a 1-of-4 (or 1-of-2) replica loss must clear — and a
  // promoted follower restores the full N/N, so the bench holds it to more
  // than survival.
  const bench::Recovery rec =
      bench::AnalyzeRecovery(buckets, kBucket, kKillOffset, 7.0 / 8.0);
  bench::PrintRecovery(rec, ">= 7/8, above the " + std::to_string(shards - 1) +
                                "/" + std::to_string(shards) + " survivor floor");
  std::printf("%-26s first view change committed at t0+%llu\n", "detection:",
              static_cast<unsigned long long>(a.first_view_change_at));

  const bool no_loss = a.load.Balanced();
  const bool deterministic = SameRun(a, b);
  std::printf("%-26s %s\n", "committed-work ledger:",
              no_loss ? "completed + shed == launched" : "REQUESTS LOST");
  std::printf("%-26s %s (run 1: %llu cycles / %llu events, run 2: %llu / %llu)\n",
              "replay bit-identical:", deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(a.final_now),
              static_cast<unsigned long long>(a.events),
              static_cast<unsigned long long>(b.final_now),
              static_cast<unsigned long long>(b.events));
  const bool ok = rec.recovered && no_loss && deterministic && ledger_ok &&
                  a.view_changes == 1 && a.promotions == 1 && a.respawns == 1 &&
                  a.catchups == 1 && a.buys_errored == 0 &&
                  a.specs_activated && a.fs_consistent;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunChaos(bench::TraceSession& session, bool quick, std::uint64_t seed) {
  const int shards = quick ? 2 : 4;
  const int rps = quick ? 24 : 32;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  bench::PrintHeader("Read-write store: chaos plan, seed " + std::to_string(seed) +
                     ", " + std::to_string(shards) + " shards");
  // Seeded plan: 1-2 replica kills (leader or follower, distinct shards)
  // composed with random NIC frame loss both ways and a permanent
  // interconnect latency spike from the first kill on — the log-shipping
  // pipeline under packet loss AND a degraded fabric.
  sim::Rng rng(seed);
  std::vector<Kill> kills;
  const int n_kills = 1 + static_cast<int>(rng.Below(2));
  int first_shard = -1;
  int leader_kills = 0;
  for (int k = 0; k < n_kills; ++k) {
    Kill kill;
    if (k == 0) {
      kill.shard = static_cast<int>(rng.Below(static_cast<std::uint64_t>(shards)));
      first_shard = kill.shard;
    } else {
      kill.shard = (first_shard + 1 +
                    static_cast<int>(rng.Below(static_cast<std::uint64_t>(shards - 1)))) %
                   shards;
    }
    kill.slot = static_cast<int>(rng.Below(2));
    kill.at = 1'000'000 + static_cast<Cycles>(rng.Below(3'000'000));
    leader_kills += kill.slot == 0 ? 1 : 0;
    kills.push_back(kill);
  }
  ExtraFaults extra;
  // High enough that both loss specs reliably fire over a ~1k-frame run (the
  // bench asserts every spec activated); TCP retransmission absorbs it.
  extra.rx_loss = 0.015;
  extra.tx_loss = 0.015;
  extra.seed = seed;
  extra.link_spike_extra = 1500;
  extra.link_spike_at = kills.front().at;
  for (const Kill& k : kills) {
    std::printf("chaos plan: halt shard %d's %s replica (core %d) at t0+%llu\n",
                k.shard, k.slot == 0 ? "leader" : "follower",
                4 * k.shard + 1 + k.slot,
                static_cast<unsigned long long>(k.at));
  }
  std::printf("chaos plan: 1.5%% NIC loss each way, +1500-cycle link spike from "
              "t0+%llu\n",
              static_cast<unsigned long long>(extra.link_spike_at));
  std::printf("replay with: store_readwrite %s--chaos-seed=%llu\n",
              quick ? "--quick " : "", static_cast<unsigned long long>(seed));

  session.BeginRun("chaos");
  RunOutput r = RunServing(spec, shards, kStoreMix, kills, &extra, rps,
                           /*print_activations=*/true);
  PrintCounters(r);
  const bool ledger_ok = CheckLedger(r, /*exact=*/false, /*print=*/true);

  struct Check {
    const char* name;
    bool ok;
  } checks[] = {
      {"request ledger balances", r.load.Balanced()},
      {"majority served", r.load.completed * 2 >= r.load.launched},
      {"write ledger exact-once", ledger_ok},
      {"all kills became view changes",
       r.view_changes == static_cast<std::uint64_t>(n_kills) &&
           r.epoch == 1 + static_cast<std::uint64_t>(n_kills)},
      {"leader kills became promotions",
       r.promotions == static_cast<std::uint64_t>(leader_kills)},
      {"dead replicas respawned and caught up",
       r.respawns == static_cast<std::uint64_t>(n_kills) &&
           r.catchups == r.respawns},
      {"fs + monitor replicas consistent", r.fs_consistent},
      {"monitors quiesced", r.monitors_quiesced},
      {"every fault spec fired", r.specs_activated},
  };
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("%-36s %s\n", c.name, c.ok ? "ok" : "FAIL");
    ok = ok && c.ok;
  }
  if (!ok) {
    std::printf("chaos FAIL: reproduce with seed %llu (plan above)\n",
                static_cast<unsigned long long>(seed));
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceFlags trace_flags = bench::ParseTraceFlags(argc, argv);
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bench::TraceSession session(trace_flags);
  bool quick = false;
  bool kill_leader = false;
  int kill_shard = 1;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--kill-leader") == 0) {
      kill_leader = true;
    } else if (std::strncmp(arg, "--kill-leader=", 14) == 0) {
      kill_leader = true;
      kill_shard =
          static_cast<int>(bench::ParseIntFlag("--kill-leader", arg + 14, 0, INT_MAX));
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = bench::ParseIntFlag("--chaos-seed", arg + 13, 0, UINT64_MAX);
    } else {
      std::fprintf(stderr,
                   "usage: store_readwrite [--quick] [--kill-leader[=K]] "
                   "[--chaos-seed=N]\n");
      return 2;
    }
  }
  int rc = 0;
  if (chaos) {
    rc = RunChaos(session, quick, chaos_seed);
  } else if (kill_leader) {
    rc = RunKillLeader(session, quick, kill_shard);
  } else {
    rc = RunSweep(session, quick);
  }
  return rc;
}
