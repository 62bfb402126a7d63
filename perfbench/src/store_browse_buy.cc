// store_browse_buy: the replicated store (apps/store) on an Amd8x4 with 4
// shards behind httpd, under a TPC-W mix: 80% browse SELECTs served by the
// shard leader, 20% buy INSERTs with a unique write id routed to the wid's
// partition. Nominal rate, then a fixed rate ladder. Writes run beside reads
// on the same net/httpd path and add the WAL append collective (monitor +
// ramfs), log shipping and commit-after-ack.
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/httpd.h"
#include "apps/store.h"
#include "fs/ramfs.h"
#include "fs/wal.h"
#include "harness.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "recover/recover.h"
#include "skb/skb.h"

namespace perfbench {
namespace {

constexpr int kShards = 4;
constexpr int kDbItems = 8000;
// The store_readwrite golden load: one request per 400k cycles per shard.
constexpr double kNominalRate = 1e6 / 100'000.0;
constexpr int kNominalRequests = 5000;
constexpr double kLadder[] = {1.25, 1.5, 1.75, 2.0};
// Browse scans cost up to ~200k cycles by item position, so a rung's p99
// needs more samples here than on the other serving workloads.
constexpr int kRungRequests = 2000;
// Fixed once: 5x the nominal p99 of the default seed (716k cycles), which
// puts it across the cliff between the x1.75 and x2.00 rungs. Below x1.75
// the p99 of neighbouring rungs overlaps from seed to seed, so a limit there
// would make the knee jump between rungs.
constexpr Cycles kP99Limit = 3'500'000;
constexpr mk::net::Ipv4Addr kServerIp = mk::net::MakeIp(10, 0, 0, 1);
constexpr mk::net::Ipv4Addr kClientIp = mk::net::MakeIp(10, 0, 0, 77);
const mk::net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const mk::net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

std::string UrlSql(std::string sql) {
  for (char& ch : sql) {
    if (ch == ' ') {
      ch = '+';
    }
  }
  return sql;
}

struct System {
  explicit System(const mk::hw::PlatformSpec& spec)
      : machine(exec, spec), drivers(mk::kernel::CpuDriver::BootAll(machine)), skb(machine),
        sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();
    sys.Boot();
  }
  mk::sim::Executor exec;
  mk::hw::Machine machine;
  std::vector<std::unique_ptr<mk::kernel::CpuDriver>> drivers;
  mk::skb::Skb skb;
  mk::monitor::MonitorSystem sys;
};

// Delivers frames the server NIC puts on the wire to the client stack.
Task<> WireSink(mk::net::SimNic& nic, mk::net::NetStack& client, const bool* stop) {
  while (!*stop) {
    mk::net::Packet p;
    while (nic.WirePop(&p)) {
      co_await client.Input(std::move(p));
    }
    if (!*stop) {
      co_await nic.wire_out_ready().Wait();
    }
  }
}

}  // namespace

PassResult RunStoreBrowseBuy(const PassConfig& cfg) {
  PassResult out;
  Stopwatch setup;

  // Schedule: seeded arrivals, item ids and write ids.
  std::vector<std::string> reads_sql;
  std::vector<std::string> writes_sql;
  std::uint64_t next_wid = 0;
  auto make = [&](int, mk::sim::Rng& rng) {
    Request r;
    if (rng.Below(5) == 0) {
      const std::uint64_t wid = ++next_wid;
      const std::string sql = "INSERT INTO orders VALUES (" + std::to_string(wid) + ", " +
                              std::to_string(rng.Below(kDbItems)) + ", " +
                              std::to_string(1 + rng.Below(5)) + ")";
      r.write = true;
      r.owner = static_cast<int>(wid % kShards);
      r.text = "GET /buy?wid=" + std::to_string(wid) + "&sql=" + UrlSql(sql) + " HTTP/1.0\r\n\r\n";
      writes_sql.push_back(sql);
    } else {
      const std::string sql = mk::apps::TpcwQuery(static_cast<int>(rng.Below(kDbItems)));
      r.text = "GET /query?sql=" + UrlSql(sql) + " HTTP/1.0\r\n\r\n";
      reads_sql.push_back(sql);
    }
    return r;
  };
  std::vector<Phase> phases(1 + std::size(kLadder));
  mk::sim::Rng rng(cfg.seed);
  phases[0].name = "nominal";
  phases[0].rate = kNominalRate;
  phases[0].requests = ArrivalSchedule(rng, kNominalRequests, kNominalRate, make);
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    Phase& p = phases[i + 1];
    p.name = Fmt("x%.2f", kLadder[i]);
    p.rate = kNominalRate * kLadder[i];
    p.requests = ArrivalSchedule(rng, kRungRequests, p.rate, make);
  }

  const mk::hw::PlatformSpec spec = mk::hw::Amd8x4();
  System s(spec);
  mk::sim::Executor& exec = s.exec;
  mk::hw::Machine& m = s.machine;
  std::vector<mk::apps::StorePlacement> placements;
  for (int i = 0; i < kShards; ++i) {
    placements.push_back({4 * i, {4 * i + 1, 4 * i + 2}, 4 * i + 3});
  }
  mk::fs::ReplicatedFs fs(s.sys);
  mk::apps::Database source;
  mk::apps::PopulateTpcw(&source, kDbItems, cfg.seed);
  source.Exec("CREATE TABLE orders (o_wid INT, o_item INT, o_qty INT)");
  mk::apps::ReplicatedStore store(m, fs, source, placements);
  exec.Spawn(store.Start());
  exec.Run();

  mk::net::SimNic::Config ncfg;
  ncfg.rx_descs = 4096;
  ncfg.tx_descs = 4096;
  ncfg.gbps = 10.0;
  ncfg.queues = kShards;
  ncfg.reta_slots = 16 * kShards;
  ncfg.irq_latency = spec.cost.ipi_wire;
  for (const auto& p : placements) {
    ncfg.irq_cores.push_back(p.web_core);
  }
  mk::net::SimNic nic(m, ncfg);
  const int client_core = spec.num_cores() - 1;
  mk::net::NetStack client(m, client_core, kClientIp, kClientMac, FreeCosts());
  client.AddArp(kServerIp, kServerMac);
  client.SetOutput(
      [&nic](mk::net::Packet p) -> Task<> { co_await nic.InjectFromWire(std::move(p)); });

  SpanSet spans;
  SpanSet* sp = cfg.traced ? &spans : nullptr;
  bool stop = false;
  std::vector<std::unique_ptr<mk::net::NetStack>> stacks;
  std::vector<std::unique_ptr<mk::apps::HttpServer>> servers;
  for (int i = 0; i < kShards; ++i) {
    const int core = placements[static_cast<std::size_t>(i)].web_core;
    auto stack = std::make_unique<mk::net::NetStack>(m, core, kServerIp, kServerMac);
    stack->AddArp(kClientIp, kClientMac);
    stack->SetOutput([&m, &nic, core, i](mk::net::Packet p) -> Task<> {
      co_await m.Compute(core, 1400);
      co_await nic.DriverTxPush(core, std::move(p), i);
    });
    // Browse: leader-local read on this web core's shard. Buy: routed by wid
    // to its partition's group. Spans time each call into the store.
    auto query_fn = [&store, &exec, sp, i](std::string sql) -> Task<std::string> {
      const Cycles t0 = exec.now();
      std::string rows = co_await store.Query(i, std::move(sql));
      if (sp != nullptr) {
        sp->store_read.push_back(exec.now() - t0);
      }
      co_return rows;
    };
    auto exec_fn = [&store, &exec, sp](std::uint64_t wid, std::string sql) -> Task<std::string> {
      const Cycles t0 = exec.now();
      std::string res = co_await store.Execute(static_cast<int>(wid % kShards), wid,
                                               std::move(sql));
      if (sp != nullptr) {
        sp->store_write.push_back(exec.now() - t0);
      }
      co_return res;
    };
    servers.push_back(std::make_unique<mk::apps::HttpServer>(m, *stack, 80, std::move(query_fn)));
    servers.back()->SetDbExec(std::move(exec_fn));
    servers.back()->SetAdmission({/*workers=*/8, /*max_pending=*/32,
                                  /*queue_deadline=*/5'000'000});
    exec.Spawn(servers.back()->Serve());
    exec.Spawn(DriverLoop(m, nic, *stack, i, core, sp, &stop));
    stacks.push_back(std::move(stack));
  }
  exec.Spawn(WireSink(nic, client, &stop));
  mk::recover::MembershipService membership(s.sys);
  membership.Subscribe([&store](const mk::recover::View& view, int dead) -> Task<> {
    co_await store.HandleViewChange(view, dead);
  });

  ClientConfig ccfg;
  ccfg.server_ip = kServerIp;
  ccfg.deadline = 8'000'000;
  Client gen(exec, {&client}, ccfg);
  gen.Plan(&phases, exec.now());
  gen.on_done = [&]() -> Task<> {
    stop = true;
    for (int q = 0; q < kShards; ++q) {
      nic.rx_irq(q).Signal();
    }
    nic.wire_out_ready().Signal();
    co_await store.Shutdown();
    s.sys.Shutdown();
  };
  std::vector<LayerCounters> snaps;
  exec.Spawn(SnapshotLoop(exec, gen.boundaries(), [&] {
    double nic_drops = 0;
    for (int q = 0; q < nic.num_queues(); ++q) {
      nic_drops += static_cast<double>(nic.queue_stats(q).rx_drops());
    }
    double stack_drops = 0;
    double shed = 0;
    for (int i = 0; i < kShards; ++i) {
      stack_drops += static_cast<double>(stacks[static_cast<std::size_t>(i)]->drops());
      shed += static_cast<double>(servers[static_cast<std::size_t>(i)]->shed_queue_full() +
                                  servers[static_cast<std::size_t>(i)]->shed_deadline());
    }
    double store_busy = 0;
    for (Cycles c : spans.store_read) {
      store_busy += static_cast<double>(c);
    }
    for (Cycles c : spans.store_write) {
      store_busy += static_cast<double>(c);
    }
    return LayerCounters{{"nic.drops", nic_drops},
                         {"stack.drops", stack_drops},
                         {"httpd.drops", shed},
                         {"store.drops", static_cast<double>(store.rpc_timeouts())},
                         {"nic.busy", spans.nic_busy},
                         {"stack.busy", spans.stack_busy},
                         {"store.busy", store_busy}};
  }, &snaps));
  m.counters().Reset();
  const std::uint64_t events0 = exec.events_dispatched();
  const std::size_t live_at_setup = exec.live_tasks();
  exec.Spawn(gen.Run());
  out.setup_s = setup.Seconds();

  TimedRun(exec, cfg, &out);
  out.events = exec.events_dispatched() - events0;

  MergeSnapshots({&snaps}, &phases);
  const KneeResult knee = FindKnee(phases, kP99Limit);
  AddServingMetrics(phases, knee, &out);
  NoteLadder(phases, kP99Limit, knee, &out);

  // Write ledger: every acked buy inserted exactly one row on its group's
  // leader, and every caught-up replica holds the same rows. A buy the
  // client gave up on may still have committed, so rows may exceed acks by
  // at most the failed buys.
  std::vector<std::uint64_t> acked(kShards, 0);
  for (const Phase& p : phases) {
    for (std::size_t o = 0; o < p.acked_per_owner.size(); ++o) {
      acked[o] += p.acked_per_owner[o];
    }
  }
  std::vector<std::uint64_t> buys(kShards, 0);
  for (const Phase& p : phases) {
    for (const Request& r : p.requests) {
      if (r.write) {
        ++buys[static_cast<std::size_t>(r.owner)];
      }
    }
  }
  bool ledger_ok = true;
  bool replicas_agree = true;
  double shipped = 0, dup = 0;
  for (int i = 0; i < kShards; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const int leader = store.leader_slot(i);
    const std::size_t rows = store.replica_table_rows(i, leader, "ORDERS");
    const std::size_t wids = store.replica_distinct_wids(i, leader);
    ledger_ok = ledger_ok && rows == wids && rows >= acked[u] && rows <= buys[u];
    for (int slot = 0; slot < store.num_slots(i); ++slot) {
      if (store.replica_alive(i, slot) && store.replica_caught_up(i, slot) &&
          (store.replica_table_rows(i, slot, "ORDERS") != rows ||
           store.replica_distinct_wids(i, slot) != wids)) {
        replicas_agree = false;
      }
    }
    shipped += static_cast<double>(store.records_shipped(i));
    dup += static_cast<double>(store.writes_dup(i));
  }
  out.Check("write ledger: leader rows == distinct wids, acked <= rows <= buys", ledger_ok);
  out.Check("caught-up replicas hold identical rows and wid sets", replicas_agree);
  out.Check("fs and monitor replicas consistent",
            fs.ReplicasConsistent() && s.sys.LiveReplicasConsistent());
  bool quiesced = true;
  for (int c = 0; c < s.sys.num_cores(); ++c) {
    quiesced = quiesced && (!s.sys.IsOnline(c) || s.sys.on(c).inflight_ops() == 0);
  }
  out.Check("monitors quiesced (no in-flight ops)", quiesced);
  out.Check("no membership view change in a fault-free run",
            membership.view_changes_committed() == 0 && store.promotions() == 0);
  CheckDrained({&exec}, &out);
  out.Check("no task outlives the load (only parked service loops remain)",
            gen.finished() && exec.live_tasks() <= live_at_setup);

  out.Sim("write_p99_kcyc", phases[0].write_lat.P(0.99) / 1e3, "kcyc");
  out.Note(Fmt("nominal buys served: %llu (the write_p99_kcyc samples)",
               static_cast<unsigned long long>(phases[0].write_lat.count())));
  out.Sim("exec.events", static_cast<double>(out.events), "count");
  AddHwCounters({&m}, &out);
  AddNicCounters({&nic}, &out);
  std::vector<const mk::net::NetStack*> server_stacks;
  double served = 0, shed = 0, bad = 0;
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    server_stacks.push_back(stacks[i].get());
    served += static_cast<double>(servers[i]->requests_served());
    shed += static_cast<double>(servers[i]->shed_queue_full() + servers[i]->shed_deadline() +
                                servers[i]->shed_progress());
    bad += static_cast<double>(servers[i]->bad_requests());
  }
  AddStackCounters(server_stacks, &out);
  out.Sim("httpd.served", served, "count");
  out.Sim("httpd.shed", shed, "count");
  out.Sim("httpd.bad", bad, "count");
  out.Sim("store.records_shipped", shipped, "count");
  out.Sim("store.rpc_timeouts", static_cast<double>(store.rpc_timeouts()), "count");
  out.Sim("store.writes_dup", dup, "count");
  out.Sim("membership.view_changes", static_cast<double>(membership.view_changes_committed()),
          "count");

  if (cfg.traced) {
    out.Observe("store.read_kcyc_p50", SpanPercentile(spans.store_read, 0.5, 100, 20'000'000) / 1e3,
                "kcyc");
    out.Observe("store.read_kcyc_p99",
                SpanPercentile(spans.store_read, 0.99, 100, 20'000'000) / 1e3, "kcyc");
    out.Observe("store.write_kcyc_p50",
                SpanPercentile(spans.store_write, 0.5, 100, 20'000'000) / 1e3, "kcyc");
    out.Observe("store.write_kcyc_p99",
                SpanPercentile(spans.store_write, 0.99, 100, 20'000'000) / 1e3, "kcyc");
    AddNetSpans({&spans}, &out);
    AddFrameHostTimings(spans.captured, &nic, &out);
    AddFramerHostTiming(phases, &out);
    AddTracerMetrics(&out);
    // Host cost of the data tier's synchronous pieces on this pass's inputs.
    std::size_t i = 0;
    out.Observe("db.query_host_us", HostNsPerOp([&] {
                  auto res = source.Query(reads_sql[i++ % reads_sql.size()]);
                  (void)res;
                }, 200) / 1e3,
                "us");
    mk::apps::Database scratch = source;
    out.Observe("db.exec_host_us", HostNsPerOp([&] {
                  (void)scratch.Exec(writes_sql[i++ % writes_sql.size()]);
                }, 200) / 1e3,
                "us");
    std::vector<mk::fs::WalRecord> recs;
    for (std::size_t k = 0; k < writes_sql.size() && k < 256; ++k) {
      recs.push_back({k + 1, 1, writes_sql[k]});
    }
    std::vector<std::uint8_t> log;
    out.Observe("wal.encode_host_ns", HostNsPerOp([&] {
                  log.clear();
                  for (const auto& r : recs) {
                    mk::fs::EncodeWalRecord(r, &log);
                  }
                }, 20) / static_cast<double>(recs.size()),
                "ns");
    out.Observe("wal.decode_host_ns", HostNsPerOp([&] {
                  std::vector<mk::fs::WalRecord> decoded;
                  (void)mk::fs::DecodeWalLog(log, &decoded);
                }, 20) / static_cast<double>(recs.size()),
                "ns");
  }
  out.Seal({exec.now()});
  return out;
}

}  // namespace perfbench
