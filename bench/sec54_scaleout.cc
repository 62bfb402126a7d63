// Section 5.4 scaled out: the paper argues a multikernel scales network
// serving by giving each core its own stack instance instead of contending on
// shared state ("our current network stack runs a separate instance of lwIP
// per application"). sec54_webserver reproduces the single-point result; this
// bench produces the *curve*: an 82576-class multi-queue NIC steers inbound
// flows by RSS to N RX queues, each drained by its own serving core running a
// private NetStack + HttpServer shard, and an open-loop load generator sweeps
// the shard count on the 4x4 and 8x4 AMD topologies. Offered load is scaled
// per shard, so a system that shards cleanly sustains N times the load at N
// cores — requests/sec grows linearly while p50/p99 stay bounded. A sharded
// read-only database mode (one replica per shard, queried over a private URPC
// channel) shows the same curve for the web+SQL mix that the single-DB
// configuration cannot scale past one core.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "bench_util.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "serving.h"
#include "sim/executor.h"

namespace mk {
namespace {

using sim::Cycles;
using sim::Task;

// Open-loop discipline: a request not finished by this deadline is shed and
// counted, never waited on — offered load stays independent of service rate.
// One attempt spans the whole deadline, so the client never retries.
constexpr Cycles kRequestDeadline = 5'000'000;

constexpr int kDbItems = 30000;

struct PointResult {
  double offered_per_sec = 0;
  double achieved_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  int shed = 0;
  std::vector<std::uint64_t> rx_frames;  // per queue
  std::vector<std::uint64_t> rx_drops;   // per queue
};

PointResult RunPoint(const hw::PlatformSpec& spec, int shards, bool use_db,
                     int requests_per_shard, Cycles interval_per_shard) {
  sim::Executor exec;
  hw::Machine m(exec, spec);

  net::SimNic::Config cfg;
  cfg.rx_descs = 512;
  cfg.tx_descs = 512;
  bench::Fleet fleet(m, shards, cfg);

  // Shard s serves on core 4s; its DB replica (if any) on 4s+1, same package.
  apps::Database source;
  std::unique_ptr<apps::DbReplicaCluster> cluster;
  if (use_db) {
    std::vector<apps::ShardPlacement> placements;
    for (int s = 0; s < shards; ++s) {
      placements.push_back({4 * s, 4 * s + 1});
    }
    apps::PopulateTpcw(&source, kDbItems);
    cluster = std::make_unique<apps::DbReplicaCluster>(m, source, placements);
  }
  for (int s = 0; s < shards; ++s) {
    bench::Shard shard;
    if (use_db) {
      shard.query = [cl = cluster.get(), s](std::string sql) -> Task<std::string> {
        co_return co_await cl->Query(s, std::move(sql));
      };
    }
    fleet.AddShard(std::move(shard));
    if (use_db) {
      exec.Spawn(cluster->Serve(s));
    }
  }

  // Fires the requests at a fixed global interval; RSS spreads the flows
  // (one ephemeral source port each) across the shards' queues.
  const bench::Mix mix{.interval_per_shard = interval_per_shard,
                       .attempt_timeout = kRequestDeadline,
                       .request_deadline = kRequestDeadline};
  std::function<Task<>()> shutdown;
  if (cluster != nullptr) {
    shutdown = [&cluster] { return cluster->Shutdown(); };
  }
  const bench::Ledger st = fleet.Run(
      requests_per_shard, mix,
      use_db ? bench::TpcwBrowse(kDbItems) : bench::StaticPage(), std::move(shutdown));

  const int total = requests_per_shard * shards;
  const Cycles interval = interval_per_shard / static_cast<Cycles>(shards);
  PointResult out;
  const double window_sec = static_cast<double>(total) *
                            static_cast<double>(interval) /
                            (spec.clock_ghz * 1e9);
  out.offered_per_sec = total / window_sec;
  out.achieved_per_sec = st.completed / window_sec;
  out.shed = st.shed;
  auto us = [&](Cycles c) { return static_cast<double>(c) / (spec.clock_ghz * 1e3); };
  out.p50_us = us(bench::Percentile(st.latencies, 0.50));
  out.p99_us = us(bench::Percentile(st.latencies, 0.99));
  for (int q = 0; q < shards; ++q) {
    out.rx_frames.push_back(fleet.nic().queue_stats(q).rx_frames);
    out.rx_drops.push_back(fleet.nic().queue_stats(q).rx_drops());
  }
  return out;
}

void RunSweep(const char* title, const hw::PlatformSpec& spec, int max_shards,
              bool use_db, int requests_per_shard, Cycles interval_per_shard) {
  std::printf("\n-- %s --\n", title);
  std::printf("%8s %12s %12s %10s %10s %6s\n", "shards", "offered/s", "achieved/s",
              "p50 us", "p99 us", "shed");
  std::vector<PointResult> points;
  for (int n = 1; n <= max_shards; ++n) {
    points.push_back(RunPoint(spec, n, use_db, requests_per_shard, interval_per_shard));
    const PointResult& r = points.back();
    std::printf("%8d %12.0f %12.0f %10.1f %10.1f %6d\n", n, r.offered_per_sec,
                r.achieved_per_sec, r.p50_us, r.p99_us, r.shed);
  }
  std::printf("per-queue RX frames (drops):\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("  shards=%zu:", i + 1);
    for (std::size_t q = 0; q < points[i].rx_frames.size(); ++q) {
      std::printf(" q%zu=%llu(%llu)", q,
                  static_cast<unsigned long long>(points[i].rx_frames[q]),
                  static_cast<unsigned long long>(points[i].rx_drops[q]));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceSession trace_session(bench::ParseTraceFlags(argc, argv));
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  bench::PrintHeader(
      "Section 5.4 scale-out: multi-queue NIC + per-core NetStack/httpd shards");

  // Static 4.1KB page, per-shard offered load fixed: the curve is linear in
  // shards iff nothing shared saturates (the NIC wire at 10 Gb/s does not).
  RunSweep(quick ? "static page, 4x4 AMD (quick)" : "static page, 4x4 AMD",
           hw::Amd4x4(), quick ? 2 : 4, /*use_db=*/false,
           /*requests_per_shard=*/quick ? 150 : 300,
           /*interval_per_shard=*/120000);
  if (!quick) {
    RunSweep("static page, 8x4 AMD", hw::Amd8x4(), 8, /*use_db=*/false,
             /*requests_per_shard=*/300, /*interval_per_shard=*/120000);
    // Web + SQL with one read-only DB replica per shard: the single-DB
    // bottleneck (sec54_webserver: ~3400/s at one core) becomes a per-shard
    // budget, so the sweep scales where the shared-DB configuration cannot.
    RunSweep("web + SQL, sharded read-only DB, 4x4 AMD", hw::Amd4x4(), 4,
             /*use_db=*/true, /*requests_per_shard=*/32,
             /*interval_per_shard=*/1'250'000);
  }

  std::printf(
      "\nShape: requests/sec grows linearly with serving cores and p50/p99 stay\n"
      "well under the shed deadline (per-shard offered load is constant), because\n"
      "RSS gives every shard its own RX queue and every shard owns its stack,\n"
      "server, and DB replica outright — the multikernel scaling argument applied\n"
      "to the full serving path.\n");
  return 0;
}
