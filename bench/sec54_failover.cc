// Section 5.4 under fail-stop faults: shard failover for the scaled-out
// serving stack. sec54_scaleout shows requests/sec growing linearly with
// per-core NetStack/httpd shards; this bench kills one of those shards
// mid-run and shows the distributed-systems payoff the paper promises (§2.3,
// §7): the monitors' heartbeat detects the dead core, a membership view
// change commits among the survivors (mk::recover), and the serving stack
// reacts — the NIC's RSS indirection table is reprogrammed so the dead
// queue's flows land on survivors, survivors RST the orphaned connections so
// clients re-handshake instead of waiting out timeouts, DB clients re-point
// at a live replica and a replacement replica is respawned from a donor.
// Throughput dips at the kill and recovers to the surviving shards' share
// within a printed, bounded window; committed work is never lost (a request
// counts only when its full 200 response arrived); and the whole failover is
// deterministic — the same seed replays bit-identically.
//
// Modes:
//   (none)            no-kill baseline; deterministic transcript (golden)
//   --kill[=K]        halt shard K's web core at t0+1M cycles (static mix)
//   --kill-db[=K]     halt shard K's DB-replica core at t0+1M (web+SQL mix)
//   --chaos-seed=N    1-2 seeded random core kills (web+SQL mix), invariants
//   --quick           4x4 machine, 4 shards, shorter run (CI soak)
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "bench_util.h"
#include "fault/fault.h"
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

constexpr int kDbItems = 30000;
constexpr Cycles kKillOffset = 1'000'000;  // default kill time, after t0

// Throughput bucket width for the dip/recovery timeline, from serving start.
constexpr Cycles kBucket = 500'000;
constexpr const char* kSinceT0 = " (t0 = serving start)";

// One scheduled fail-stop kill, relative to serving start (t0).
struct Kill {
  bool db = false;  // false: the shard's web core; true: its DB-replica core
  int shard = 0;
  Cycles at = kKillOffset;
};

// Workload shape per mix. Two sizing rules, both load-bearing:
//
//  - Offered load is ~60-80% of the rate sec54_scaleout proves sustainable
//    (1/120k per shard static, 1/1.25M web+SQL). A failover bench must run
//    below saturation: at 100%, N-1 survivors can never re-absorb the dead
//    shard's flows and "recovery" is unreachable by construction. At 1/192k
//    per shard, survivors of a 1-of-4 kill run at ~83% of saturation.
//  - attempt_timeout sits well above the no-kill p99 (sec54_scaleout measures
//    up to ~1.8 ms ≈ 4.5M cycles of queueing at saturation). A timeout below
//    normal latency makes clients abandon requests the server is still
//    working on and retry them, which snowballs into a self-inflicted
//    metastable collapse with zero faults injected. Post-kill recovery does
//    NOT ride this timeout — orphaned flows die fast via retransmit → RST.
struct Mix : bench::Mix {
  bool use_db = false;
};

const Mix kStaticMix{{.interval_per_shard = 192'000,
                      .attempt_timeout = 6'000'000,
                      .request_deadline = 20'000'000},
                     /*use_db=*/false};
const Mix kDbMix{{.interval_per_shard = 1'920'000,
                  .attempt_timeout = 6'000'000,
                  .request_deadline = 20'000'000},
                 /*use_db=*/true};

struct RunOutput {
  Cycles t0 = 0;  // serving start (after boot)
  Cycles final_now = 0;
  std::uint64_t events = 0;
  bench::Ledger load;
  std::uint64_t view_changes = 0;
  std::uint64_t epoch = 1;
  int reta_rewritten = 0;
  std::uint64_t adopted = 0;
  std::uint64_t rsts_sent = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t db_respawns = 0;
  std::uint64_t db_timeouts = 0;
  bool db_all_home = true;  // every redirect home, no replica left dead
  bool replicas_consistent = true;
  bool monitors_quiesced = true;
  bool specs_activated = true;
};

RunOutput RunServing(const hw::PlatformSpec& spec, int shards, const Mix& mix,
                     const std::vector<Kill>& kills, int requests_per_shard,
                     bool print_activations) {
  recover::ScopedRecoveryConfig scoped_rcfg(bench::ServingRecoveryConfig());
  bench::System s(spec);
  sim::Executor& exec = s.exec;
  hw::Machine& m = s.machine;
  const Cycles t0 = exec.now();

  // Shard i: web core 4i, DB replica core 4i+1 (same package); core 4i+2 is
  // the shard's spare, used by replica respawn.
  std::vector<apps::ShardPlacement> placements;
  for (int i = 0; i < shards; ++i) {
    placements.push_back({4 * i, 4 * i + 1});
  }

  // The fault schedule, anchored at t0 so kill offsets are exact regardless
  // of boot length. No kills -> no Injector: the identical plain-run path.
  std::unique_ptr<fault::Injector> inj;
  if (!kills.empty()) {
    fault::FaultPlan plan;
    for (const Kill& k : kills) {
      const auto& p = placements[static_cast<std::size_t>(k.shard)];
      plan.HaltCore(k.db ? p.db_core : p.web_core, t0 + k.at);
    }
    inj = std::make_unique<fault::Injector>(plan);
    inj->Install();
    // Boot ran without the injector; arm the detector now.
    exec.Spawn(s.sys.HeartbeatLoop());
  }

  net::SimNic::Config cfg;
  // Deep rings (real 10G NICs run 1-4k descriptors). The failover transient
  // arrives as a burst — orphaned flows' retransmits plus their retried
  // SYNs, all landing on the survivors at once. A shallow ring drops ACKs
  // under that burst, each drop provokes a full-window go-back-N resend, and
  // the resends keep the ring full: a self-sustaining congestion collapse.
  // Sized to absorb the worst burst the kill can generate so the storm never
  // ignites.
  cfg.rx_descs = 4096;
  cfg.tx_descs = 4096;
  // Fine-grained RETA: 16 slots per queue. At baseline this is steering-
  // identical to the slots==queues identity table ((h % 16q) % q == h % q),
  // but on failover it lets ResteerQueue spread the dead queue's 16 slots
  // round-robin across ALL survivors instead of dumping the whole orphaned
  // share onto one of them — the difference between +1/(N-1) load per
  // survivor and one survivor at 2x, which can never drain.
  cfg.reta_slots = 16 * shards;
  bench::Fleet fleet(m, shards, cfg);

  apps::Database source;
  std::unique_ptr<apps::DbReplicaCluster> cluster;
  if (mix.use_db) {
    apps::PopulateTpcw(&source, kDbItems);
    cluster = std::make_unique<apps::DbReplicaCluster>(m, source, placements);
  }

  for (int i = 0; i < shards; ++i) {
    bench::Shard shard;
    if (mix.use_db) {
      shard.query = [cl = cluster.get(), i](std::string sql) -> Task<std::string> {
        co_return co_await cl->Query(i, std::move(sql));
      };
    }
    // Explicit overload policy: bounded admission queue, 503 on overflow or
    // stale waiters, so a degraded fleet sheds instead of collapsing. The
    // queue deadline sits above the workload's healthy p99 queue wait so it
    // only fires under genuine overload (post-kill), never in the baseline.
    shard.admission = {/*workers=*/8, /*max_pending=*/32,
                       /*queue_deadline=*/5'000'000};
    fleet.AddShard(std::move(shard));
    if (mix.use_db) {
      exec.Spawn(cluster->Serve(i));
    }
  }

  // The failover chain: the membership service publishes each committed view
  // change and the serving stack reacts.
  recover::MembershipService membership(s.sys);
  int reta_rewritten = 0;
  membership.Subscribe(
      [&](const recover::View& view, int dead_core) -> Task<> {
        // A dead web core: move its RX queue's RETA slots onto the surviving
        // shards and arm RST-for-unknown on them so adopted flows reset
        // immediately instead of waiting out client timeouts.
        for (int i = 0; i < shards; ++i) {
          if (placements[static_cast<std::size_t>(i)].web_core != dead_core) {
            continue;
          }
          std::vector<int> survivors;
          for (int t = 0; t < shards; ++t) {
            const int tw = placements[static_cast<std::size_t>(t)].web_core;
            if (t != i && view.live[static_cast<std::size_t>(tw)]) {
              survivors.push_back(t);
            }
          }
          if (!survivors.empty()) {
            reta_rewritten += fleet.nic().ResteerQueue(i, survivors);
            for (int t : survivors) {
              fleet.stack(t).SetSendRstForUnknown(true);
            }
          }
        }
        // A dead DB core: re-point its clients at a live replica, then
        // respawn a replacement on the shard's spare core and serve it.
        if (cluster != nullptr) {
          (void)cluster->HandleCoreFailure(dead_core);
          for (int i = 0; i < shards; ++i) {
            const auto& p = placements[static_cast<std::size_t>(i)];
            if (p.db_core != dead_core) {
              continue;
            }
            if (co_await cluster->Respawn(i, p.db_core + 1)) {
              exec.Spawn(cluster->Serve(i));
            }
          }
        }
      });

  bench::Ledger load = fleet.Run(
      requests_per_shard, mix,
      mix.use_db ? bench::TpcwBrowse(kDbItems) : bench::StaticPage(),
      [&]() -> Task<> {
        if (cluster != nullptr) {
          co_await cluster->Shutdown();
        }
        s.sys.Shutdown();
      });

  RunOutput out;
  out.t0 = t0;
  out.final_now = exec.now();
  out.events = exec.events_dispatched();
  out.load = std::move(load);
  out.view_changes = membership.view_changes_committed();
  out.epoch = membership.view().epoch;
  out.reta_rewritten = reta_rewritten;
  for (int i = 0; i < shards; ++i) {
    out.adopted += fleet.nic().queue_stats(i).rx_adopted;
    out.rsts_sent += fleet.stack(i).tcp_rsts_sent();
    out.shed_queue_full += fleet.server(i).shed_queue_full();
    out.shed_deadline += fleet.server(i).shed_deadline();
  }
  if (cluster != nullptr) {
    out.db_respawns = cluster->respawns();
    out.db_timeouts = cluster->failover_timeouts();
    for (int i = 0; i < shards; ++i) {
      if (cluster->redirect(i) != i || cluster->replica_dead(i)) {
        out.db_all_home = false;
      }
    }
  }
  out.replicas_consistent = s.sys.LiveReplicasConsistent();
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
  return a.final_now == b.final_now && a.events == b.events && a.load == b.load &&
         a.view_changes == b.view_changes && a.adopted == b.adopted &&
         a.rsts_sent == b.rsts_sent && a.db_timeouts == b.db_timeouts;
}

void PrintCounters(const RunOutput& r, bool use_db) {
  std::printf("%-26s %d launched, %d completed, %d shed, %d retries\n",
              "requests:", r.load.launched, r.load.completed, r.load.shed,
              r.load.retries);
  std::printf("%-26s %llu committed (epoch %llu)\n", "view changes:",
              static_cast<unsigned long long>(r.view_changes),
              static_cast<unsigned long long>(r.epoch));
  std::printf("%-26s %d slots rewritten, %llu frames adopted, %llu RSTs sent\n",
              "flow re-steering:", r.reta_rewritten,
              static_cast<unsigned long long>(r.adopted),
              static_cast<unsigned long long>(r.rsts_sent));
  std::printf("%-26s %llu queue-full, %llu deadline\n", "admission sheds:",
              static_cast<unsigned long long>(r.shed_queue_full),
              static_cast<unsigned long long>(r.shed_deadline));
  if (use_db) {
    std::printf("%-26s %llu reply timeouts, %llu respawns, %s\n", "db failover:",
                static_cast<unsigned long long>(r.db_timeouts),
                static_cast<unsigned long long>(r.db_respawns),
                r.db_all_home ? "all redirects home" : "REDIRECTS NOT HOME");
  }
}

// ---------------------------------------------------------------------------
// Modes

int RunNoKill(bench::TraceSession& session, bool quick) {
  bench::PrintHeader(quick
                         ? "Section 5.4 failover: no-kill baseline, 4 shards on 4x4 AMD (quick)"
                         : "Section 5.4 failover: no-kill baseline, 8 shards on 8x4 AMD");
  session.BeginRun("no-kill");
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 150 : 250;
  RunOutput r = RunServing(quick ? hw::Amd4x4() : hw::Amd8x4(), shards,
                           kStaticMix, {}, rps, /*print_activations=*/false);
  const Cycles window = static_cast<Cycles>(rps) * kStaticMix.interval_per_shard;
  bench::PrintBuckets(bench::Bucketize(r.load.completions, r.t0, window, kBucket),
                      kBucket, kSinceT0);
  PrintCounters(r, /*use_db=*/false);
  const bool ok = r.load.completed == r.load.launched && r.load.shed == 0 &&
                  r.view_changes == 0 && r.adopted == 0 && r.rsts_sent == 0;
  std::printf("%-26s %s\n", "clean run:",
              ok ? "all requests served, no recovery machinery touched"
                 : "UNEXPECTED LOSS OR RECOVERY ACTIVITY");
  return ok ? 0 : 1;
}

int RunKillWeb(bench::TraceSession& session, bool quick, int shard) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 150 : 250;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr, "--kill=%d out of range (0..%d)\n", shard, shards - 1);
    return 2;
  }
  bench::PrintHeader("Section 5.4 failover: kill shard " + std::to_string(shard) +
                     "'s web core (" + std::to_string(4 * shard) + ") at t0+" +
                     std::to_string(kKillOffset) + " cycles, " +
                     std::to_string(shards) + " shards");
  const std::vector<Kill> kills = {{/*db=*/false, shard, kKillOffset}};
  session.BeginRun("kill-web-run1");
  RunOutput a = RunServing(spec, shards, kStaticMix, kills, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-web-run2");
  RunOutput b = RunServing(spec, shards, kStaticMix, kills, rps,
                           /*print_activations=*/false);

  const Cycles window = static_cast<Cycles>(rps) * kStaticMix.interval_per_shard;
  const std::vector<int> buckets =
      bench::Bucketize(a.load.completions, a.t0, window, kBucket);
  bench::PrintBuckets(buckets, kBucket, kSinceT0);
  PrintCounters(a, /*use_db=*/false);

  const bench::Recovery rec =
      bench::AnalyzeRecovery(buckets, kBucket, kKillOffset, 7.0 / 8.0);
  bench::PrintRecovery(rec, ">= 7/8 of it");

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
  const bool ok = rec.recovered && no_loss && deterministic &&
                  a.view_changes == 1 && a.adopted > 0 && a.specs_activated &&
                  a.replicas_consistent;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunKillDb(bench::TraceSession& session, bool quick, int shard) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 24 : 48;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr, "--kill-db=%d out of range (0..%d)\n", shard, shards - 1);
    return 2;
  }
  const int db_core = 4 * shard + 1;
  bench::PrintHeader("Section 5.4 failover: kill shard " + std::to_string(shard) +
                     "'s DB-replica core (" + std::to_string(db_core) +
                     ") at t0+" + std::to_string(kKillOffset) + " cycles, " +
                     std::to_string(shards) + " shards, web+SQL mix");
  const std::vector<Kill> kills = {{/*db=*/true, shard, kKillOffset}};
  session.BeginRun("kill-db-run1");
  RunOutput a = RunServing(spec, shards, kDbMix, kills, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-db-run2");
  RunOutput b = RunServing(spec, shards, kDbMix, kills, rps,
                           /*print_activations=*/false);
  PrintCounters(a, /*use_db=*/true);
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
  // The dip here is bounded by db_rpc_timeout, and the replacement replica
  // must end up serving: redirects home, nothing left dead, no request lost.
  const bool ok = no_loss && deterministic && a.view_changes == 1 &&
                  a.db_respawns == 1 && a.db_all_home && a.load.shed == 0 &&
                  a.specs_activated && a.replicas_consistent;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunChaos(bench::TraceSession& session, bool quick, std::uint64_t seed) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 16 : 24;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  bench::PrintHeader("Section 5.4 failover: chaos plan, seed " +
                     std::to_string(seed) + ", " + std::to_string(shards) +
                     " shards, web+SQL mix");
  // The seeded plan: 1-2 fail-stop kills of distinct shards, each hitting
  // either the web core or the DB-replica core at a random early offset.
  sim::Rng rng(seed);
  std::vector<Kill> kills;
  const int n_kills = 1 + static_cast<int>(rng.Below(2));
  int first_shard = -1;
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
    kill.db = rng.Below(2) == 1;
    kill.at = 500'000 + static_cast<Cycles>(rng.Below(1'500'000));
    kills.push_back(kill);
  }
  for (const Kill& k : kills) {
    std::printf("chaos plan: halt shard %d's %s core (%d) at t0+%llu\n", k.shard,
                k.db ? "DB-replica" : "web", 4 * k.shard + (k.db ? 1 : 0),
                static_cast<unsigned long long>(k.at));
  }
  std::printf("replay with: sec54_failover %s--chaos-seed=%llu\n",
              quick ? "--quick " : "", static_cast<unsigned long long>(seed));

  session.BeginRun("chaos");
  RunOutput r = RunServing(spec, shards, kDbMix, kills, rps,
                           /*print_activations=*/true);
  PrintCounters(r, /*use_db=*/true);

  // Invariants, not thresholds: chaos plans vary in damage, but the ledger
  // must balance, every kill must be detected and committed as a view change,
  // every dead replica must be respawned, the survivors' capability replicas
  // must agree, and the run must have exercised every scheduled fault.
  int db_kills = 0;
  for (const Kill& k : kills) {
    db_kills += k.db ? 1 : 0;
  }
  struct Check {
    const char* name;
    bool ok;
  } checks[] = {
      {"ledger balances", r.load.Balanced()},
      {"majority served", r.load.completed * 2 >= r.load.launched},
      {"all kills became view changes",
       r.view_changes == static_cast<std::uint64_t>(n_kills) &&
           r.epoch == 1 + static_cast<std::uint64_t>(n_kills)},
      {"dead replicas respawned",
       r.db_respawns == static_cast<std::uint64_t>(db_kills) && r.db_all_home},
      {"live replicas consistent", r.replicas_consistent},
      {"monitors quiesced", r.monitors_quiesced},
      {"every fault spec fired", r.specs_activated},
  };
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("%-32s %s\n", c.name, c.ok ? "ok" : "FAIL");
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
  bool kill = false;
  int kill_shard = 2;
  bool kill_db = false;
  int kill_db_shard = 1;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--kill") == 0) {
      kill = true;
    } else if (std::strncmp(arg, "--kill=", 7) == 0) {
      kill = true;
      kill_shard = static_cast<int>(bench::ParseIntFlag("--kill", arg + 7, 0, INT_MAX));
    } else if (std::strcmp(arg, "--kill-db") == 0) {
      kill_db = true;
    } else if (std::strncmp(arg, "--kill-db=", 10) == 0) {
      kill_db = true;
      kill_db_shard =
          static_cast<int>(bench::ParseIntFlag("--kill-db", arg + 10, 0, INT_MAX));
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = bench::ParseIntFlag("--chaos-seed", arg + 13, 0, UINT64_MAX);
    } else {
      std::fprintf(stderr,
                   "usage: sec54_failover [--quick] [--kill[=K]] [--kill-db[=K]] "
                   "[--chaos-seed=N]\n");
      return 2;
    }
  }
  int rc = 0;
  if (chaos) {
    rc = RunChaos(session, quick, chaos_seed);
  } else if (kill) {
    rc = RunKillWeb(session, quick, kill_shard);
  } else if (kill_db) {
    rc = RunKillDb(session, quick, kill_db_shard);
  } else {
    rc = RunNoKill(session, quick);
  }
  return rc;
}
