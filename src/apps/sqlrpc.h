// SQL over URPC: the one wire format and cost model of the database services
// (DbReplicaCluster's read-only replicas, ReplicatedStore's leader/follower
// groups). A web core sends a statement to the core its database runs on,
// the database core executes it against its own copy, and the rendered rows
// come back as one PacketChannel packet.
//
// Framing: a statement travels as payload-sized URPC fragments, tagged 2
// (more) except the last, which is tagged 1 (final). A statement of n bytes
// is max(1, ceil(n / kPayloadBytes)) messages: even an empty one ends in a
// (zero-length) final fragment, so the server always answers it.
// kShutdownTag poisons a server loop.
#ifndef MK_APPS_SQLRPC_H_
#define MK_APPS_SQLRPC_H_

#include <cstdint>
#include <optional>
#include <string>

#include "apps/db.h"
#include "hw/machine.h"
#include "sim/task.h"
#include "urpc/channel.h"

namespace mk::apps {

using sim::Cycles;
using sim::Task;

constexpr std::uint64_t kShutdownTag = 0xdead;

// Simulated DB costs, charged on the database's core: a statement pays a
// fixed parse cost plus a scan cost per row (the "bottlenecked at the SQLite
// core" behaviour of §5.4), and a replica applying a shipped or replayed log
// record pays half the parse cost plus the same per-row cost.
constexpr Cycles kDbCyclesPerRow = 25;
constexpr Cycles StatementCost(std::uint64_t rows_scanned) {
  return 5000 + rows_scanned * kDbCyclesPerRow;
}
constexpr Cycles ApplyCost(std::uint64_t rows_scanned) {
  return 2500 + rows_scanned * kDbCyclesPerRow;
}

// Sends `sql` as one framed statement.
Task<> SendSql(urpc::Channel& ch, const std::string& sql);

// Receives one framed statement; nullopt on the shutdown poison.
Task<std::optional<std::string>> RecvSql(urpc::Channel& ch);

// Sends the shutdown poison.
Task<> SendShutdown(urpc::Channel& ch);

// Runs the SELECT `sql` on `db`, charges its StatementCost on `core`, and
// returns the reply text: every row's values, each followed by '|', one row
// per line; or "error: <message>".
Task<std::string> ServeQuery(hw::Machine& machine, int core, const Database& db,
                             const std::string& sql);

}  // namespace mk::apps

#endif  // MK_APPS_SQLRPC_H_
