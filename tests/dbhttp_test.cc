// Tests for the mini relational database and the HTTP server: parsing,
// malformed-input rejection, end-to-end serving over TCP, the sharded
// read-only replica cluster, and the SQL-over-URPC framing it speaks.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "urpc/channel.h"

namespace mk::apps {
namespace {

using sim::Task;

Database MakeDb() {
  Database db;
  EXPECT_FALSE(db.Exec("CREATE TABLE items (i_id INT, i_title TEXT, i_cost INT)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (1, 'alpha', 500)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (2, 'beta', 300)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (3, 'gamma', 700)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (4, 'delta', 300)"));
  return db;
}

Database::ResultSet MustQuery(const Database& db, const std::string& sql) {
  auto result = db.Query(sql);
  EXPECT_TRUE(std::holds_alternative<Database::ResultSet>(result))
      << sql << ": " << std::get<DbError>(result).message;
  return std::get<Database::ResultSet>(result);
}

// MakeDb's rows, every column in table order.
const std::vector<std::vector<DbValue>> kItemRows = {
    {DbValue{std::int64_t{1}}, DbValue{"alpha"}, DbValue{std::int64_t{500}}},
    {DbValue{std::int64_t{2}}, DbValue{"beta"}, DbValue{std::int64_t{300}}},
    {DbValue{std::int64_t{3}}, DbValue{"gamma"}, DbValue{std::int64_t{700}}},
    {DbValue{std::int64_t{4}}, DbValue{"delta"}, DbValue{std::int64_t{300}}}};

TEST(Db, SelectReturnsTheNamedColumnsOfEveryRow) {
  Database db = MakeDb();
  auto rs = MustQuery(db, "SELECT i_id, i_title, i_cost FROM items");
  EXPECT_EQ(rs.rows, kItemRows);
  EXPECT_EQ(rs.rows_scanned, 4u);
  // Columns come back in the order the SELECT names them.
  auto swapped = MustQuery(db, "SELECT i_cost, i_id FROM items WHERE i_id = 3");
  EXPECT_EQ(swapped.rows, (std::vector<std::vector<DbValue>>{
                              {DbValue{std::int64_t{700}}, DbValue{std::int64_t{3}}}}));
  // LIMIT keeps the first n matches in table order.
  auto cheap = MustQuery(db, "SELECT i_id FROM items WHERE i_cost = 300 LIMIT 1");
  ASSERT_EQ(cheap.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(cheap.rows[0][0]), 2);
  auto first = MustQuery(db, "SELECT i_title FROM items LIMIT 2");
  ASSERT_EQ(first.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(first.rows[0][0]), "alpha");
  EXPECT_EQ(std::get<std::string>(first.rows[1][0]), "beta");
  EXPECT_EQ(first.rows_scanned, 4u);  // the cost basis is still the table
}

TEST(Db, WhereOnTextColumn) {
  Database db = MakeDb();
  auto rs = MustQuery(db, "SELECT i_id FROM items WHERE i_title = 'beta'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 2);
}

TEST(Db, ErrorsAreReported) {
  Database db = MakeDb();
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("SELECT i_id FROM nope")));
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("SELECT bogus FROM items")));
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("DROP TABLE items")));
  EXPECT_TRUE(db.Exec("INSERT INTO items VALUES (1, 2)").has_value());    // arity
  EXPECT_TRUE(db.Exec("INSERT INTO items VALUES ('x', 'y', 'z')").has_value());  // types
  EXPECT_TRUE(db.Exec("CREATE TABLE items (a INT)").has_value());  // duplicate
  // An unknown WHERE operator is an error, never a predicate that silently
  // matches no row.
  EXPECT_TRUE(
      std::holds_alternative<DbError>(db.Query("SELECT i_id FROM items WHERE i_id LIKE 1")));
  // A WHERE literal of the wrong type is an error, never a comparison across
  // types that matches every row or none.
  auto mismatch = db.Query("SELECT i_id FROM items WHERE i_id = '2'");
  ASSERT_TRUE(std::holds_alternative<DbError>(mismatch));
  EXPECT_EQ(std::get<DbError>(mismatch).message, "type mismatch in WHERE column I_ID");
  EXPECT_TRUE(
      std::holds_alternative<DbError>(db.Query("SELECT i_id FROM items WHERE i_title = 2")));
  // The engine speaks CREATE TABLE, INSERT and SELECT cols FROM t
  // [WHERE col = lit] [LIMIT n]. Every other statement or clause is an
  // error, never a partial reading of it.
  const std::pair<const char*, const char*> exec_rejects[] = {
      {"UPDATE items SET i_cost = 0", "unsupported statement: UPDATE"},
      {"DELETE FROM items", "unsupported statement: DELETE"},
      {"DELETE FROM items WHERE i_cost = 300", "unsupported statement: DELETE"},
      {"INSERT INTO items VALUES (5, 'eps', 100) WHERE i_id = 1", "trailing tokens: WHERE"},
      {"INSERT INTO items VALUES (5, 'eps', 100); DELETE FROM items",
       "trailing tokens: DELETE"},
      {"CREATE TABLE extra (a INT) PRIMARY KEY", "trailing tokens: PRIMARY"},
  };
  for (const auto& [sql, message] : exec_rejects) {
    EXPECT_EQ(db.Exec(sql).value_or(DbError{"accepted"}).message, message) << sql;
  }
  const std::pair<const char*, const char*> query_rejects[] = {
      {"SELECT * FROM items", "no such column: *"},
      {"SELECT i_id FROM extra", "no such table: EXTRA"},
      {"SELECT i_id FROM items ORDER BY i_cost", "trailing tokens: ORDER"},
      {"SELECT i_id FROM items LIMIT 1; SELECT i_id FROM items", "trailing tokens: SELECT"},
      {"SELECT i_id FROM items LIMIT -1", "bad LIMIT"},
      {"SELECT i_id FROM items WHERE i_cost < 500", "unknown WHERE operator: <"},
      {"SELECT i_id FROM items WHERE i_cost <= 500", "unknown WHERE operator: <"},
      {"SELECT i_id FROM items WHERE i_cost > 500", "unknown WHERE operator: >"},
      {"SELECT i_id FROM items WHERE i_cost >= 500", "unknown WHERE operator: >"},
      {"SELECT i_id FROM items WHERE i_cost != 300", "unknown WHERE operator: !"},
  };
  for (const auto& [sql, message] : query_rejects) {
    auto result = db.Query(sql);
    const DbError* error = std::get_if<DbError>(&result);
    EXPECT_EQ(error ? error->message : "accepted", message) << sql;
  }
  // A literal with no closing quote is an error, never a literal that
  // swallows the rest of the statement: the SELECT below would otherwise
  // match the 'beta' row.
  EXPECT_EQ(db.Exec("INSERT INTO items VALUES (5, 'x, 1)")
                .value_or(DbError{"accepted"})
                .message,
            "unterminated string literal");
  auto open_select = db.Query("SELECT i_id FROM items WHERE i_title = 'beta");
  const DbError* select_error = std::get_if<DbError>(&open_select);
  EXPECT_EQ(select_error ? select_error->message : "accepted", "unterminated string literal");
  // No rejected statement changed the table.
  EXPECT_EQ(MustQuery(db, "SELECT i_id, i_title, i_cost FROM items").rows, kItemRows);
}

TEST(Db, QuotedStringsWithSpacesAndEscapes) {
  Database db;
  ASSERT_FALSE(db.Exec("CREATE TABLE t (s TEXT)"));
  ASSERT_FALSE(db.Exec("INSERT INTO t VALUES ('it''s a test value')"));
  auto rs = MustQuery(db, "SELECT s FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "it's a test value");
}

TEST(Db, TpcwPopulationAndQuery) {
  Database db;
  PopulateTpcw(&db, 100);
  EXPECT_EQ(db.TableRows("ITEMS"), 100u);
  EXPECT_EQ(db.TableRows("AUTHORS"), 26u);
  EXPECT_EQ(db.TotalRows(), 126u);
  auto rs = MustQuery(db, TpcwQuery(42));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 42);
  EXPECT_EQ(rs.rows_scanned, 100u);  // full scan: the cost basis
  // A copy owns its rows: every store replica starts as a copy of the
  // populated source, so a write to one replica must never show in another.
  Database copy = db;
  EXPECT_FALSE(copy.Exec("INSERT INTO items VALUES (100, 'copied', 0, 1, 1)"));
  EXPECT_EQ(copy.TableRows("ITEMS"), 101u);
  EXPECT_EQ(db.TableRows("ITEMS"), 100u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_title = 'copied'").rows.size(), 0u);
  EXPECT_EQ(MustQuery(copy, "SELECT i_id FROM items WHERE i_title = 'copied'").rows.size(), 1u);
}

TEST(Db, IntegerLiteralOverflowIsRejectedNotWrapped) {
  // Pre-fix, stoll threw (or UB'd) on out-of-range literals; now the parser
  // must reject them as errors, leaving the table untouched.
  Database db = MakeDb();
  auto err = db.Exec("INSERT INTO items VALUES (99999999999999999999999, 'x', 1)");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("out of range"), std::string::npos);
  EXPECT_EQ(db.TableRows("ITEMS"), 4u);
  // WHERE literals too: rejected, not wrapped into a bogus comparison
  // (2^64 + 1 wraps to 1, the cost of the row inserted next).
  ASSERT_FALSE(db.Exec("INSERT INTO items VALUES (5, 'one', 1)"));
  auto wrapped = db.Query("SELECT i_id FROM items WHERE i_cost = 18446744073709551617");
  const DbError* where_error = std::get_if<DbError>(&wrapped);
  EXPECT_EQ(where_error ? where_error->message : "accepted",
            "integer literal out of range: 18446744073709551617");
  // Boundary values parse exactly.
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (9223372036854775807, 'max', -1)"));
  auto rs = MustQuery(db, "SELECT i_id FROM items WHERE i_title = 'max'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 9223372036854775807LL);
}

TEST(Http, ParsesRequestLine) {
  HttpRequest req;
  EXPECT_TRUE(ParseHttpRequest("GET /index.html HTTP/1.0\r\n\r\n", &req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/index.html");
  EXPECT_TRUE(req.query.empty());
  EXPECT_TRUE(ParseHttpRequest("GET /query?sql=SELECT HTTP/1.0\r\n", &req));
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.query, "sql=SELECT");
  EXPECT_FALSE(ParseHttpRequest("POST / HTTP/1.0\r\n", &req));
  EXPECT_FALSE(ParseHttpRequest("garbage", &req));
}

TEST(Http, ResponseRendering) {
  HttpResponse resp;
  resp.body = "hello";
  std::string text = RenderHttpResponse(resp);
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 5), "hello");
}

TEST(Http, StaticPageIsAboutFourKib) {
  std::string page = StaticIndexPage();
  EXPECT_GE(page.size(), 4000u);
  EXPECT_LE(page.size(), 4500u);
}

// --- Malformed-request fuzz: the parser must reject, never crash ---

TEST(HttpFuzz, TruncatedAndMalformedRequestLinesAreRejected) {
  HttpRequest req;
  const char* bad[] = {
      "",
      "G",
      "GET",
      "GET ",
      "GET \r\n",
      "GET \n",
      " / HTTP/1.0\r\n",
      "\r\n",
      "\n",
      "\r\n\r\n",
      "POST / HTTP/1.0\r\n",
      "DELETE /x HTTP/1.0\r\n",
      "garbage",
      "\x01\x02\x03 \x04 \x05\r\n",
  };
  for (const char* s : bad) {
    EXPECT_FALSE(ParseHttpRequest(s, &req)) << "accepted: " << s;
  }
  // Missing the terminating CRLF is tolerated as long as the line is whole
  // (the server only hands over buffered text once it saw a newline or gave
  // up, so the parser itself is lenient here).
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.0", &req));
  EXPECT_TRUE(ParseHttpRequest("HEAD /x HTTP/1.0\n", &req));
}

TEST(HttpFuzz, OversizedRequestLineIsRejected) {
  HttpRequest req;
  // A request line that alone exceeds the buffer cap is refused even if
  // syntactically a GET; one byte under the cap still parses.
  std::string huge = "GET /" + std::string(kMaxRequestBytes, 'a') + " HTTP/1.0\r\n";
  EXPECT_FALSE(ParseHttpRequest(huge, &req));
  std::string fits = "GET /" + std::string(100, 'a') + " HTTP/1.0\r\n";
  EXPECT_TRUE(ParseHttpRequest(fits, &req));
}

TEST(HttpFuzz, RandomBytesNeverCrashTheParser) {
  sim::Rng rng(0xdecafbad);
  HttpRequest req;
  for (int i = 0; i < 500; ++i) {
    std::string s(rng.Below(300), '\0');
    for (char& c : s) {
      c = static_cast<char>(rng.Below(256));
    }
    if (rng.Below(2) == 0) {
      s.insert(0, "GET ");  // half the corpus starts plausibly
    }
    (void)ParseHttpRequest(s, &req);  // must not crash or hang
  }
}

// --- End-to-end: malformed/oversized requests answered with 400 ---

const net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 0x01};
const net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 0x02};
constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 0, 2);

struct HttpFixture {
  explicit HttpFixture(HttpServer::DbQueryFn db_query = nullptr)
      : machine(exec, hw::Amd2x2()),
        server_stack(machine, 0, kSrvIp, kSrvMac),
        client_stack(machine, 2, kCliIp, kCliMac),
        server(machine, server_stack, 80, std::move(db_query)) {
    server_stack.AddArp(kCliIp, kCliMac);
    client_stack.AddArp(kSrvIp, kSrvMac);
    server_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await client_stack.Input(std::move(p));
    });
    client_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await server_stack.Input(std::move(p));
    });
    exec.Spawn(server.Serve());
  }
  // Sends `raw` as one request, returns everything the server answered.
  std::string Roundtrip(const std::string& raw) {
    std::string reply;
    exec.Spawn([](net::NetStack& stack, const std::string& req,
                  std::string& out) -> Task<> {
      net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kSrvIp, 80);
      co_await stack.TcpSend(*conn, req);
      for (;;) {
        auto chunk = co_await conn->Read();
        if (chunk.empty() && conn->peer_closed) {
          break;
        }
        out.append(chunk.begin(), chunk.end());
      }
    }(client_stack, raw, reply));
    exec.Run();
    return reply;
  }
  sim::Executor exec;
  hw::Machine machine;
  net::NetStack server_stack;
  net::NetStack client_stack;
  HttpServer server;
};

TEST(HttpServerEndToEnd, WellFormedRequestIsServed) {
  HttpFixture f;
  std::string reply = f.Roundtrip("GET /index.html HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(reply.find("multikernel"), std::string::npos);
  EXPECT_EQ(f.server.requests_served(), 1u);
}

TEST(HttpServerEndToEnd, GarbageRequestGets400) {
  HttpFixture f;
  std::string reply = f.Roundtrip("\x02\x7f not-http at all\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_EQ(f.server.requests_served(), 0u);
}

TEST(HttpServerEndToEnd, OversizedHeaderlessRequestGets400AndBoundedBuffer) {
  HttpFixture f;
  // No newline anywhere: the server must give up at kMaxRequestBytes rather
  // than buffer without bound, and answer 400.
  std::string flood(kMaxRequestBytes + 200, 'A');
  std::string reply = f.Roundtrip(flood);
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_EQ(f.server.requests_served(), 0u);
}

TEST(HttpServerEndToEnd, MalformedBuyWidGets400) {
  HttpFixture f;
  bool exec_called = false;
  f.server.SetDbExec(
      [&exec_called](std::uint64_t, std::string) -> Task<std::string> {
        exec_called = true;
        co_return "ok 1";
      });
  // A non-digit in the wid must be a 400, not a silently truncated wid that
  // could collide with another client's write id and answer "dup" for a
  // write that was never applied. Empty and out-of-range wids are malformed
  // too.
  std::string reply = f.Roundtrip("GET /buy?wid=12x&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  reply = f.Roundtrip("GET /buy?wid=&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  // A wid past 64 bits must not wrap: 2^64 + 1 would be write id 1.
  reply = f.Roundtrip("GET /buy?wid=18446744073709551617&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_FALSE(exec_called);
  // A well-formed wid still reaches the store.
  reply = f.Roundtrip("GET /buy?wid=12&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_TRUE(exec_called);
}

TEST(HttpServerEndToEnd, EmptyQueryIsAnsweredAndTheNextQueryServed) {
  // /query?sql= and a bare /query hand the database an empty statement. It
  // must reach the replica as one final fragment: sent as zero messages, it
  // is never answered, and the handler holds the shard's RPC slot in its
  // reply wait, so every later /query on the server hangs behind it.
  DbReplicaCluster* db = nullptr;
  HttpFixture f([&db](std::string sql) { return db->Query(0, std::move(sql)); });
  DbReplicaCluster cluster(f.machine, MakeDb(), {{0, 1}});
  db = &cluster;
  f.exec.Spawn(cluster.Serve(0));
  for (const char* empty : {"GET /query?sql= HTTP/1.0\r\n\r\n", "GET /query HTTP/1.0\r\n\r\n"}) {
    std::string reply = f.Roundtrip(empty);
    EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u) << empty;
    EXPECT_NE(reply.find("error: expected SELECT"), std::string::npos) << empty;
  }
  std::string reply =
      f.Roundtrip("GET /query?sql=SELECT+i_title+FROM+items+WHERE+i_id+=+3 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_NE(reply.find("gamma|"), std::string::npos);
  EXPECT_EQ(cluster.queries_served(0), 3u);
  f.exec.Spawn(cluster.Shutdown());
  f.exec.Run();
}

// --- Sharded read-only DB replicas ---

TEST(DbShard, EmptyStatementUnderAnInjectorLeavesTheReplicaLive) {
  // With an injector installed the reply wait is bounded. An empty statement
  // the replica never received would time out there and mark a healthy
  // replica dead. (The injector uninstalls itself when it goes out of scope.)
  fault::Injector inj{fault::FaultPlan{}};
  inj.Install();
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  DbReplicaCluster cluster(machine, MakeDb(), {{0, 1}});
  exec.Spawn(cluster.Serve(0));
  std::string answer = "(no answer)";
  exec.Spawn([](DbReplicaCluster& c, std::string& out) -> Task<> {
    out = co_await c.Query(0, "");
    co_await c.Shutdown();
  }(cluster, answer));
  exec.Run();
  EXPECT_EQ(answer, "error: expected SELECT");
  EXPECT_FALSE(cluster.replica_dead(0));
  EXPECT_EQ(cluster.failover_timeouts(), 0u);
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

TEST(DbShard, StatementsOfEveryFragmentBoundaryRoundTrip) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  DbReplicaCluster cluster(machine, MakeDb(), {{0, 1}});
  exec.Spawn(cluster.Serve(0));
  const auto cases = FramingCases("SELECT i_title FROM items WHERE i_id = 3", "gamma|\n");
  std::vector<std::string> answers;
  exec.Spawn([](DbReplicaCluster& c, const std::vector<std::pair<std::string, std::string>>& in,
                std::vector<std::string>& out) -> Task<> {
    for (const auto& statement : in) {
      out.push_back(co_await c.Query(0, statement.first));
    }
    co_await c.Shutdown();
  }(cluster, cases, answers));
  exec.Run();
  ASSERT_EQ(answers.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(answers[i], cases[i].second) << cases[i].first.size() << "-byte statement";
  }
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(DbShard, EmptyStatementGetsAnErrorAndAConcurrentQueryIsAnswered) {
  // The empty statement must not wedge the shard: unless the framing sends
  // it as a final fragment, it holds the shard's RPC slot forever and the
  // valid query queued behind it gets no answer.
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  DbReplicaCluster cluster(machine, MakeDb(), {{0, 1}});
  exec.Spawn(cluster.Serve(0));
  auto ask = [](DbReplicaCluster& c, std::string sql, std::string& out) -> Task<> {
    out = co_await c.Query(0, std::move(sql));
  };
  std::string empty = "(no answer)";
  std::string valid = "(no answer)";
  exec.Spawn(ask(cluster, "", empty));
  exec.Spawn(ask(cluster, "SELECT i_title FROM items WHERE i_id = 3", valid));
  exec.Run();
  EXPECT_EQ(empty, "error: expected SELECT");
  EXPECT_EQ(valid, "gamma|\n");
  EXPECT_EQ(cluster.queries_served(0), 2u);
  exec.Spawn(cluster.Shutdown());
  exec.Run();
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(DbShard, ReplicasAnswerIdenticallyAndIndependently) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  Database source;
  PopulateTpcw(&source, 100);
  DbReplicaCluster cluster(machine, source,
                           {{0, 1}, {4, 5}, {8, 9}});
  ASSERT_EQ(cluster.num_shards(), 3);
  for (int s = 0; s < 3; ++s) {
    exec.Spawn(cluster.Serve(s));
  }
  std::vector<std::string> answers;
  exec.Spawn([](DbReplicaCluster& c, std::vector<std::string>& out) -> Task<> {
    for (int s = 0; s < c.num_shards(); ++s) {
      out.push_back(co_await c.Query(s, TpcwQuery(42)));
    }
    // A second query on shard 1 only: per-shard counters must not bleed.
    (void)co_await c.Query(1, TpcwQuery(7));
    co_await c.Shutdown();
  }(cluster, answers));
  exec.Run();
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_FALSE(answers[0].empty());
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[1], answers[2]);
  EXPECT_NE(answers[0].find("item-42"), std::string::npos);
  EXPECT_EQ(cluster.queries_served(0), 1u);
  EXPECT_EQ(cluster.queries_served(1), 2u);
  EXPECT_EQ(cluster.queries_served(2), 1u);
  // Shutdown drained every Serve() loop: nothing is left alive or pending.
  EXPECT_EQ(exec.live_tasks(), 0u);
  EXPECT_EQ(exec.pending_events(), 0u);
}

}  // namespace
}  // namespace mk::apps
