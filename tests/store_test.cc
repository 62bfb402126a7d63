// apps::ReplicatedStore unit tests: the write path (WAL append, log shipping,
// follower-durability commit), exactly-once semantics by client write id,
// stale-leader fencing, and membership-driven promotion + respawn. The bench
// (store_readwrite) covers the same machinery end-to-end through httpd; these
// pin the protocol decisions directly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/httpd.h"
#include "apps/store.h"
#include "fault/fault.h"
#include "fs/ramfs.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "recover/config.h"
#include "recover/recover.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "skb/skb.h"
#include "urpc/channel.h"

namespace mk::apps {
namespace {

using kernel::CpuDriver;
using sim::Cycles;
using sim::Task;

struct Fixture {
  explicit Fixture(hw::PlatformSpec spec = hw::Amd4x4())
      : machine(exec, std::move(spec)),
        drivers(CpuDriver::BootAll(machine)),
        skb(machine),
        sys(machine, skb, drivers),
        fs(sys) {
    skb.PopulateFromHardware();
    sys.Boot();
    source.Exec("CREATE TABLE kv (k INT, v INT)");
  }

  // Builds the store and completes Start() (WAL creation) so tests begin
  // from a quiesced serving state, like the bench does.
  ReplicatedStore& MakeStore(std::vector<StorePlacement> placements) {
    store = std::make_unique<ReplicatedStore>(machine, fs, source, std::move(placements));
    exec.Spawn(store->Start());
    exec.Run();
    return *store;
  }

  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
  fs::ReplicatedFs fs;
  Database source;
  std::unique_ptr<ReplicatedStore> store;
};

std::string Insert(int k, int v) {
  return "INSERT INTO kv VALUES (" + std::to_string(k) + ", " + std::to_string(v) + ")";
}

TEST(Store, WriteCommitsOnLeaderAndFollowerBeforeAck) {
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st) -> Task<> {
    std::string r = co_await st.Execute(0, /*wid=*/1, Insert(10, 100));
    EXPECT_EQ(r, "ok 1");
    // The ack implies the follower already applied: no settle delay needed.
    EXPECT_EQ(st.replica_applied_lsn(0, 0), 1u);
    EXPECT_EQ(st.replica_applied_lsn(0, 1), 1u);
    EXPECT_EQ(st.replica_table_rows(0, 0, "KV"), 1u);
    EXPECT_EQ(st.replica_table_rows(0, 1, "KV"), 1u);
    // Leader-local reads observe the committed write.
    std::string rows = co_await st.Query(0, "SELECT k, v FROM kv WHERE k = 10");
    EXPECT_NE(rows.find("100"), std::string::npos);
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store));
  f.exec.Run();
  EXPECT_EQ(store.writes_committed(0), 1u);
  EXPECT_EQ(store.records_shipped(0), 1u);
  EXPECT_EQ(store.last_lsn(0), 1u);
  EXPECT_TRUE(f.fs.ReplicasConsistent());
}

TEST(Store, RetryWithSameWidAnswersDupWithoutReapplying) {
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st) -> Task<> {
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/7, Insert(1, 1)), "ok 1");
    // A client retry of a committed-but-unacked write re-sends the same wid;
    // the store must answer success without touching the tables or the log.
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/7, Insert(1, 1)), "dup");
    EXPECT_EQ(st.replica_table_rows(0, 0, "KV"), 1u);
    EXPECT_EQ(st.replica_table_rows(0, 1, "KV"), 1u);
    EXPECT_EQ(st.replica_distinct_wids(0, 0), 1u);
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store));
  f.exec.Run();
  EXPECT_EQ(store.writes_committed(0), 1u);
  EXPECT_EQ(store.writes_dup(0), 1u);
  EXPECT_EQ(store.last_lsn(0), 1u);  // the dup never reached the WAL
}

TEST(Store, RetryOfRejectedWriteReplaysTheErrorNotDup) {
  // An engine-rejected write is logged and dedup-tracked like any other; if
  // its error reply is lost in a failover, the client's retry must learn the
  // recorded rejection — answering "dup" would report a write that never
  // applied as committed.
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st) -> Task<> {
    const std::string bad = "INSERT INTO nope VALUES (1, 1)";
    std::string first = co_await st.Execute(0, /*wid=*/9, bad);
    EXPECT_EQ(first, "error: db: no such table: NOPE");
    std::string retry = co_await st.Execute(0, /*wid=*/9, bad);
    EXPECT_EQ(retry, first);  // the recorded outcome, not "dup"
    // A committed write's retry still answers "dup".
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/10, Insert(1, 1)), "ok 2");
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/10, Insert(1, 1)), "dup");
    // Writes arrive from outside (/buy), and the engine accepts only CREATE
    // TABLE and INSERT: an UPDATE or DELETE is a rejected write, retried or
    // not, and no replica's table changes.
    const std::string update = "UPDATE kv SET v = 0";
    const std::string no_update = "error: db: unsupported statement: UPDATE";
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/11, update), no_update);
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/11, update), no_update);  // the retry
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/12, "DELETE FROM kv"),
              "error: db: unsupported statement: DELETE");
    EXPECT_EQ(st.replica_table_rows(0, 0, "KV"), 1u);
    EXPECT_EQ(st.replica_table_rows(0, 1, "KV"), 1u);
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store));
  f.exec.Run();
  EXPECT_EQ(store.writes_rejected(0), 3u);
  EXPECT_EQ(store.writes_dup(0), 3u);  // every retry took the dedup path
  EXPECT_EQ(store.writes_committed(0), 1u);
}

// Statements of 0, 1, P-1, P, P+1 and 3P bytes (P = one URPC payload), each
// with the reply the engine gives it. `select` is padded with leading
// spaces, so its last byte lands on or just past a fragment boundary.
std::vector<std::pair<std::string, std::string>> FramingCases(const std::string& select,
                                                              const std::string& rows) {
  constexpr std::size_t kP = urpc::Message::kPayloadBytes;
  std::vector<std::pair<std::string, std::string>> cases = {
      {"", "error: expected SELECT"}, {"3", "error: expected SELECT"}};
  for (std::size_t n : {kP - 1, kP, kP + 1, 3 * kP}) {
    cases.emplace_back(std::string(n - select.size(), ' ') + select, rows);
  }
  return cases;
}

TEST(Store, StatementsOfEveryFragmentBoundaryRoundTrip) {
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  const auto cases = FramingCases("SELECT v FROM kv WHERE k = 10", "100|\n");
  std::vector<std::string> answers;
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st,
                  const std::vector<std::pair<std::string, std::string>>& in,
                  std::vector<std::string>& out) -> Task<> {
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/1, Insert(10, 100)), "ok 1");
    for (const auto& statement : in) {
      out.push_back(co_await st.Query(0, statement.first));
    }
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store, cases, answers));
  f.exec.Run();
  ASSERT_EQ(answers.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(answers[i], cases[i].second) << cases[i].first.size() << "-byte statement";
  }
  EXPECT_EQ(store.reads_served(0), cases.size());
}

TEST(Store, EmptyStatementGetsAnErrorAndAConcurrentQueryIsAnswered) {
  // The empty statement must not wedge the shard: unless the framing sends
  // it as a final fragment, the leader never answers it, the web side holds
  // the shard's RPC slot in its reply wait forever, and the valid query
  // queued behind it gets no answer.
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  f.exec.Spawn([](ReplicatedStore& st) -> Task<> {
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/1, Insert(10, 100)), "ok 1");
  }(store));
  f.exec.Run();
  auto ask = [](ReplicatedStore& st, std::string sql, std::string& out) -> Task<> {
    out = co_await st.Query(0, std::move(sql));
  };
  std::string empty = "(no answer)";
  std::string valid = "(no answer)";
  f.exec.Spawn(ask(store, "", empty));
  f.exec.Spawn(ask(store, "SELECT v FROM kv WHERE k = 10", valid));
  f.exec.Run();
  EXPECT_EQ(empty, "error: expected SELECT");
  EXPECT_EQ(valid, "100|\n");
  EXPECT_EQ(store.reads_served(0), 2u);
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st) -> Task<> {
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store));
  f.exec.Run();
}

TEST(Store, ShardsArePartitionsWithIndependentLogs) {
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}, {4, {5, 6}, 7}});
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st) -> Task<> {
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/1, Insert(1, 10)), "ok 1");
    EXPECT_EQ(co_await st.Execute(1, /*wid=*/2, Insert(2, 20)), "ok 1");
    EXPECT_EQ(co_await st.Execute(1, /*wid=*/3, Insert(3, 30)), "ok 2");
    EXPECT_EQ(st.replica_table_rows(0, 0, "KV"), 1u);
    EXPECT_EQ(st.replica_table_rows(1, 0, "KV"), 2u);
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store));
  f.exec.Run();
  EXPECT_EQ(store.last_lsn(0), 1u);
  EXPECT_EQ(store.last_lsn(1), 2u);
}

TEST(Store, SupersededLeaderIsFencedAndNeverAcks) {
  // Force the term forward while a write's WAL append is in flight: the
  // deposed leader must detect the supersession at the post-append fence and
  // answer an error instead of acking — "a stale leader can never ack after
  // its view is superseded", exercised without a full view change.
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  std::string reply;
  bool done = false;
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st, std::string& out, bool& d) -> Task<> {
    out = co_await st.Execute(0, /*wid=*/1, Insert(5, 50));
    d = true;
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store, reply, done));
  // Bump the term every few kcycles for the write's whole lifetime: whichever
  // bump lands between the leader's term capture and its post-append check
  // trips the fence.
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st, const bool& d) -> Task<> {
    while (!d) {
      st.ForceTermBumpForTest(0);
      co_await fx.exec.Delay(5'000);
    }
  }(f, store, done));
  f.exec.Run();
  EXPECT_EQ(reply, "error: fenced");
  EXPECT_GE(store.writes_fenced(0), 1u);
  EXPECT_EQ(store.writes_committed(0), 0u);
  EXPECT_EQ(store.last_lsn(0), 0u);  // the group never advanced
  EXPECT_EQ(store.replica_table_rows(0, 0, "KV"), 0u);  // and never applied
  EXPECT_EQ(store.replica_table_rows(0, 1, "KV"), 0u);
}

TEST(Store, LeaderKillPromotesMostCaughtUpFollowerAndRespawns) {
  // Injector AFTER boot and store Start (both exec.Run() to quiescence, which
  // an auto-spawned heartbeat loop would prevent); then the heartbeat loop is
  // spawned explicitly for the killed run, the bench's idiom.
  Fixture f;
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  fault::FaultPlan plan;
  plan.HaltCore(1, /*at=*/2'000'000);  // shard 0's boot leader
  fault::Injector inj(plan);
  recover::MembershipService membership(f.sys);
  membership.Subscribe([&](const recover::View& v, int dead) -> Task<> {
    co_await store.HandleViewChange(v, dead);
  });
  f.exec.Spawn(f.sys.HeartbeatLoop());
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st,
                  recover::MembershipService& ms) -> Task<> {
    // Pre-kill write commits through the boot leader and reaches the
    // follower — that is what makes the follower "most caught up".
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/1, Insert(1, 11)), "ok 1");
    EXPECT_EQ(st.leader_slot(0), 0);
    // Sleep past the kill, its heartbeat exclusion, and the view change.
    co_await fx.exec.Delay(3'500'000);
    EXPECT_EQ(st.leader_slot(0), 1);         // the follower was promoted
    EXPECT_EQ(st.term(0), ms.view().epoch);  // term == membership epoch
    // Writes flow again through the promoted leader.
    EXPECT_EQ(co_await st.Execute(0, /*wid=*/2, Insert(2, 22)), "ok 2");
    // The respawned replica (on the spare core) replays the WAL to the tail.
    co_await fx.exec.Delay(1'000'000);
    EXPECT_EQ(st.replica_core(0, 0), 3);
    EXPECT_TRUE(st.replica_caught_up(0, 0));
    EXPECT_EQ(st.replica_applied_lsn(0, 0), 2u);
    EXPECT_EQ(st.replica_table_rows(0, 0, "KV"), 2u);
    EXPECT_EQ(st.replica_distinct_wids(0, 0), 2u);  // dedup set rebuilt from replay
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store, membership));
  f.exec.Run();
  EXPECT_EQ(membership.view_changes_committed(), 1u);
  EXPECT_EQ(store.promotions(), 1u);
  EXPECT_EQ(store.respawns(), 1u);
  EXPECT_EQ(store.catchups(), 1u);
  EXPECT_EQ(store.writes_committed(0), 2u);
  EXPECT_TRUE(store.replica_alive(0, 1));  // the promoted leader
  EXPECT_TRUE(store.replica_alive(0, 0));  // the respawned replacement
}

TEST(Store, RpcsQueuedBehindAFailoverGoToThePromotedLeader) {
  // Three reads of one shard: the first is at the leader when its core
  // halts, and the other two wait behind it on the group's RPC slot. Only
  // the first waits out the RPC timeout. By the time the queued two take the
  // slot the view change has promoted the follower, and each resolves the
  // leader only then.
  constexpr Cycles kHaltAt = 2'000'000;
  Fixture f;
  f.source.Exec(Insert(1, 11));
  ReplicatedStore& store = f.MakeStore({{0, {1, 2}, 3}});
  ASSERT_LT(f.exec.now(), kHaltAt - 2'000);
  fault::FaultPlan plan;
  plan.HaltCore(1, kHaltAt);  // shard 0's boot leader
  fault::Injector inj(plan);
  recover::MembershipService membership(f.sys);
  membership.Subscribe([&](const recover::View& v, int dead) -> Task<> {
    co_await store.HandleViewChange(v, dead);
  });
  f.exec.Spawn(f.sys.HeartbeatLoop());
  int answered = 0;
  sim::Event all_answered(f.exec);
  f.exec.Spawn([](Fixture& fx, ReplicatedStore& st, int& n, sim::Event& done) -> Task<> {
    // A read's request reaches the leader well inside 2,000 cycles, and its
    // statement costs 5,000 there, so the halt lands mid-statement.
    co_await fx.exec.Delay(kHaltAt - 2'000 - fx.exec.now());
    for (int i = 0; i < 3; ++i) {
      fx.exec.Spawn([](ReplicatedStore& rs, int& count, sim::Event& ev) -> Task<> {
        EXPECT_EQ(co_await rs.Query(0, "SELECT k, v FROM kv WHERE k = 1"), "1|11|\n");
        if (++count == 3) {
          ev.Signal();
        }
      }(st, n, done));
    }
    while (n < 3) {
      co_await done.Wait();
    }
    co_await st.Shutdown();
    fx.sys.Shutdown();
  }(f, store, answered, all_answered));
  f.exec.Run();
  EXPECT_EQ(answered, 3);
  EXPECT_EQ(store.promotions(), 1u);
  EXPECT_EQ(store.leader_slot(0), 1);
  EXPECT_EQ(store.rpc_timeouts(), 1u);
}

}  // namespace
}  // namespace mk::apps
