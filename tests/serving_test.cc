// Tests for the serving harness (bench/serving.h): the recovery-window
// analyzer and its timeline, the floor-index percentile, the open-loop
// client's full-200 rule and retry ledger against a scripted server, and
// the single-machine serving fleet end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "serving.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"

namespace mk::bench {
namespace {

// --- AnalyzeRecovery ---

constexpr Cycles kBucket = 100;

TEST(RecoveryAnalysis, KillInTheFirstTwoBucketsOrAtTheEndIsNeverRecovered) {
  const std::vector<int> flat(8, 10);
  // Bucket 0 is warm-up and bucket 1 alone leaves no pre-kill mean to speak
  // of; a kill in the last (truncated) bucket or past it leaves no window.
  for (Cycles kill_at : {Cycles{0}, Cycles{150}, Cycles{700}, Cycles{750}, Cycles{900}}) {
    const Recovery r = AnalyzeRecovery(flat, kBucket, kill_at, 7.0 / 8.0);
    EXPECT_FALSE(r.recovered) << "kill at " << kill_at;
    EXPECT_EQ(r.prekill, 0.0) << "kill at " << kill_at;  // nothing measured
    EXPECT_EQ(r.window, 0u) << "kill at " << kill_at;
  }
  const Recovery r = AnalyzeRecovery(flat, kBucket, 200, 7.0 / 8.0);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 100u);
}

TEST(RecoveryAnalysis, WindowStartsAfterTheLastBucketBelowHalfThePreKillMean) {
  // Pre-kill mean 10. From bucket 3 on the mean (53/6) clears 7/8 of it,
  // but bucket 4 (3 < 5) is a hole, so recovery starts at bucket 5.
  const std::vector<int> buckets = {0, 10, 10, 10, 3, 10, 10, 10, 10, 5};
  const Recovery r = AnalyzeRecovery(buckets, kBucket, 300, 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.prekill, 10.0);
  EXPECT_DOUBLE_EQ(r.threshold, 8.75);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 600u - 300u);
}

TEST(RecoveryAnalysis, IgnoresTheFinalTruncatedBucket) {
  // An empty last bucket would be a hole; it is cut off by the run's end,
  // so it does not count.
  const std::vector<int> buckets = {10, 10, 10, 10, 10, 10, 0};
  const Recovery r = AnalyzeRecovery(buckets, kBucket, 300, 7.0 / 8.0);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 100u);
}

TEST(RecoveryAnalysis, WindowRunsFromTheKillToTheEndOfTheFirstSustainedBucket) {
  // Kill mid-bucket 3 (t=320). Bucket 3 holds a hole; from bucket 4 the
  // mean (46/5) clears 8.75 with no bucket under 5, so the window ends at
  // bucket 4's end, t=500.
  const std::vector<int> buckets = {7, 10, 10, 2, 6, 10, 10, 10, 10, 10};
  const Recovery r = AnalyzeRecovery(buckets, kBucket, 320, 7.0 / 8.0);
  ASSERT_TRUE(r.recovered);
  EXPECT_EQ(r.window, 500u - 320u);
}

// --- Timeline and percentile ---

TEST(Timeline, BucketizeDropsCompletionsOutsideTheWindow) {
  const std::vector<Cycles> completions = {999, 1000, 1099, 1100, 1299, 1300, 5000};
  EXPECT_EQ(Bucketize(completions, /*t0=*/1000, /*window=*/300, kBucket),
            (std::vector<int>{2, 1, 1}));
}

TEST(Timeline, PercentileTakesTheFloorIndex) {
  const std::vector<Cycles> v = {40, 10, 30, 20};
  EXPECT_EQ(Percentile(v, 0.0), 10u);
  EXPECT_EQ(Percentile(v, 0.5), 20u);   // floor(1.5); the nearest index is 30
  EXPECT_EQ(Percentile(v, 0.99), 30u);  // floor(2.97); the nearest index is 40
  EXPECT_EQ(Percentile(v, 1.0), 40u);
  EXPECT_EQ(Percentile({}, 0.5), 0u);
}

// --- The open-loop client against a scripted server ---

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 77);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

// Connections the scripted server answered, by the answer it gave.
struct Answers {
  int ok = 0;         // a complete 200
  int truncated = 0;  // a 200 whose body stops short of its Content-Length
  int busy = 0;       // a 503
  int silent = 0;     // a close with no bytes
};

Task<> Answer(net::NetStack& server, net::NetStack::TcpConn* conn, Answers& answers) {
  std::string req;
  while (req.find("\r\n\r\n") == std::string::npos) {
    const std::vector<std::uint8_t> chunk = co_await conn->Read();
    if (chunk.empty()) {
      co_return;
    }
    req.append(chunk.begin(), chunk.end());
  }
  if (req.rfind("GET /truncated ", 0) == 0) {
    ++answers.truncated;
    co_await server.TcpSend(*conn, "HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\nshort");
  } else if (req.rfind("GET /busy ", 0) == 0) {
    ++answers.busy;
    co_await server.TcpSend(*conn, "HTTP/1.0 503 Busy\r\nContent-Length: 4\r\n\r\nbusy");
  } else if (req.rfind("GET /silent ", 0) == 0) {
    ++answers.silent;
  } else {
    ++answers.ok;
    co_await server.TcpSend(*conn, "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok");
  }
  co_await server.TcpClose(*conn);
}

Task<> ScriptedServer(sim::Executor& exec, net::NetStack& server, Answers& answers) {
  auto& listener = server.TcpListen(80);
  while (true) {
    net::NetStack::TcpConn* conn = co_await listener.Accept();
    exec.Spawn(Answer(server, conn, answers));
  }
}

TEST(ServingClient, OnlyAFullOkCompletesAndEveryFailureIsRetriedThenShed) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());
  net::NetStack client(m, 0, kClientIp, kClientMac, FreeCosts());
  net::NetStack server(m, 1, kServerIp, kServerMac);
  client.AddArp(kServerIp, kServerMac);
  server.AddArp(kClientIp, kClientMac);
  client.SetOutput([&server](net::Packet p) { return server.Input(std::move(p)); });
  server.SetOutput([&client](net::Packet p) { return client.Input(std::move(p)); });
  Answers answers;
  exec.Spawn(ScriptedServer(exec, server, answers));

  const std::vector<std::string> targets = {"/ok", "/truncated", "/busy", "/silent"};
  std::vector<std::string> bodies;
  RequestSource source = [&targets, &bodies, next = 0](sim::Rng&) mutable {
    return Request{targets[static_cast<std::size_t>(next++)],
                   [&bodies](const std::string& body) { bodies.push_back(body); }};
  };
  const Mix mix{.interval_per_shard = 1000,
                .attempt_timeout = 2'000'000,
                .request_deadline = 1'500'000};
  LoadStats st(exec);
  exec.Spawn(Generator(exec, client, kServerIp, 4, mix.interval_per_shard, mix, st,
                       std::move(source)));
  exec.Run();

  EXPECT_TRUE(st.finished);
  EXPECT_EQ(st.launched, 4);
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.shed, 3);
  EXPECT_TRUE(st.Balanced());
  EXPECT_EQ(bodies, (std::vector<std::string>{"ok"}));
  ASSERT_EQ(st.latencies.size(), 1u);
  EXPECT_EQ(st.completions.size(), 1u);
  // Each failure kind was retried until the deadline shed it, and the
  // client blamed every failed attempt on what the server actually did.
  EXPECT_EQ(answers.ok, 1);
  EXPECT_GE(answers.truncated, 2);
  EXPECT_GE(answers.busy, 2);
  EXPECT_GE(answers.silent, 2);
  EXPECT_EQ(st.fail_other, answers.truncated);
  EXPECT_EQ(st.fail_503, answers.busy);
  EXPECT_EQ(st.fail_rst, answers.silent);
  EXPECT_EQ(st.fail_connect, 0);
  EXPECT_GE(st.retries, answers.truncated + answers.busy + answers.silent - 3);
  EXPECT_GE(exec.now(), mix.request_deadline);
}

// --- The serving fleet ---

const Mix kStaticMix{.interval_per_shard = 120'000,
                     .attempt_timeout = 5'000'000,
                     .request_deadline = 5'000'000};

net::SimNic::Config RingsOf512() {
  net::SimNic::Config cfg;
  cfg.rx_descs = 512;
  cfg.tx_descs = 512;
  return cfg;
}

TEST(ServingFleet, TwoShardStaticRunServesEveryRequestOnBothQueues) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd4x4());
  Fleet fleet(m, 2, RingsOf512());
  fleet.AddShard({});
  fleet.AddShard({});
  const Ledger load = fleet.Run(20, kStaticMix, StaticPage());

  ASSERT_EQ(fleet.nic().num_queues(), 2);
  EXPECT_EQ(load.launched, 40);
  EXPECT_EQ(load.completed, 40);
  EXPECT_EQ(load.shed, 0);
  EXPECT_EQ(load.retries, 0);
  EXPECT_EQ(fleet.server(0).requests_served() + fleet.server(1).requests_served(), 40u);
  for (int q = 0; q < 2; ++q) {
    EXPECT_EQ(fleet.nic().irq_core(q), 4 * q);
    EXPECT_GT(fleet.nic().queue_stats(q).rx_frames, 0u) << "queue " << q;
    EXPECT_EQ(fleet.nic().queue_stats(q).rx_drops(), 0u) << "queue " << q;
  }
}

TEST(ServingFleet, RunEndsWithTheShutdownHookAndOnlyAcceptLoopsParked) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd4x4());
  Fleet fleet(m, 2, RingsOf512());
  fleet.AddShard({});
  fleet.AddShard({});
  int answered_at_shutdown = -1;
  const Ledger load = fleet.Run(10, kStaticMix, StaticPage(), [&]() -> Task<> {
    answered_at_shutdown = static_cast<int>(fleet.server(0).requests_served() +
                                            fleet.server(1).requests_served());
    co_return;
  });

  EXPECT_EQ(load.completed, 20);
  EXPECT_EQ(answered_at_shutdown, 20);
  // The RX loops, the wire sink and the client have all returned; each
  // shard's HttpServer accept loop stays parked on its listener.
  EXPECT_EQ(exec.live_tasks(), 2u);
  EXPECT_EQ(exec.pending_events(), 0u);
}

}  // namespace
}  // namespace mk::bench
