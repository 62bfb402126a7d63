// Web stack demo: the section 5.4 IO configuration as a runnable program.
//
// Boots the 2x2-core AMD machine with the paper's placement — e1000 driver
// on core 2, web server on core 3, database on core 1 — all user-space
// processes connected by URPC, and issues HTTP requests (static page and a
// TPC-W-style SQL query) from a simulated client. The database process is a
// one-placement apps::DbReplicaCluster, the same one sec54_webserver runs.
//
// Build & run:  ./build/examples/web_stack
#include <cstdio>
#include <string>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "sim/executor.h"

using namespace mk;
using net::Packet;
using sim::Cycles;
using sim::Task;

namespace {

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 7);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 7};

Task<> Client(sim::Executor& exec, net::NetStack& stack, std::string target) {
  Cycles t0 = exec.now();
  net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kServerIp, 80);
  co_await stack.TcpSend(*conn, "GET " + target + " HTTP/1.0\r\n\r\n");
  std::string response;
  while (!conn->peer_closed) {
    auto chunk = co_await conn->Read();
    if (chunk.empty()) {
      break;
    }
    response.append(chunk.begin(), chunk.end());
  }
  co_await stack.TcpClose(*conn);
  std::string first_line = response.substr(0, response.find('\r'));
  std::printf("GET %-50s -> %s (%zu bytes, %llu cycles)\n", target.c_str(),
              first_line.c_str(), response.size(),
              static_cast<unsigned long long>(exec.now() - t0));
  std::size_t body_at = response.find("\r\n\r\n");
  if (target.rfind("/query", 0) == 0 && body_at != std::string::npos) {
    std::string rows = response.substr(body_at + 4, 60);
    std::printf("    rows: %s\n", rows.substr(0, rows.find('\n')).c_str());
  }
}

}  // namespace

int main() {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd2x2());
  std::printf("placement: services core 0 | database core 1 | e1000 driver core 2 | "
              "web server core 3\n\n");

  net::NetStack server(machine, 3, kServerIp, kServerMac);
  net::NetStack client(machine, 0, kClientIp, kClientMac);
  server.AddArp(kClientIp, kClientMac);
  client.AddArp(kServerIp, kServerMac);
  // Frames pass through the driver core (URPC hops modeled as driver work).
  server.SetOutput([&machine, &client](Packet p) -> Task<> {
    co_await machine.Compute(2, 1400);
    co_await client.Input(std::move(p));
  });
  client.SetOutput([&machine, &server](Packet p) -> Task<> {
    co_await machine.Compute(2, 1400);
    co_await server.Input(std::move(p));
  });

  // The database process on core 1, queried by the web server on core 3.
  apps::Database source;
  apps::PopulateTpcw(&source, 2000);
  apps::DbReplicaCluster db(machine, source, {{3, 1}});
  exec.Spawn(db.Serve(0));

  apps::HttpServer http(machine, server, 80, [&db](std::string sql) {
    return db.Query(0, std::move(sql));
  });
  exec.Spawn(http.Serve());

  std::string sql = apps::TpcwQuery(42);
  for (char& ch : sql) {
    if (ch == ' ') {
      ch = '+';
    }
  }
  exec.Spawn(Client(exec, client, "/index.html"));
  exec.RunUntil(exec.now() + 50'000'000);
  exec.Spawn(Client(exec, client, "/query?sql=" + sql));
  exec.RunUntil(exec.now() + 50'000'000);
  exec.Spawn(Client(exec, client, "/missing"));
  exec.RunUntil(exec.now() + 50'000'000);
  exec.Spawn(db.Shutdown());
  exec.Run();
  std::printf("\nserved %llu requests; simulated time %llu cycles\n",
              static_cast<unsigned long long>(http.requests_served()),
              static_cast<unsigned long long>(exec.now()));
  return 0;
}
