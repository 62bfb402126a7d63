#include "apps/sqlrpc.h"

#include <algorithm>
#include <cstring>
#include <variant>

namespace mk::apps {
namespace {

constexpr std::uint64_t kSqlFinalTag = 1;
constexpr std::uint64_t kSqlMoreTag = 2;

}  // namespace

Task<> SendSql(urpc::Channel& ch, const std::string& sql) {
  std::size_t off = 0;
  do {
    urpc::Message msg;
    msg.len = static_cast<std::uint32_t>(
        std::min(urpc::Message::kPayloadBytes, sql.size() - off));
    msg.tag = off + msg.len == sql.size() ? kSqlFinalTag : kSqlMoreTag;
    std::memcpy(msg.bytes.data(), sql.data() + off, msg.len);
    co_await ch.Send(msg);
    off += msg.len;
  } while (off < sql.size());
}

Task<std::optional<std::string>> RecvSql(urpc::Channel& ch) {
  std::string sql;
  while (true) {
    urpc::Message msg = co_await ch.Recv();
    if (msg.tag == kShutdownTag) {
      co_return std::nullopt;
    }
    sql.append(reinterpret_cast<const char*>(msg.bytes.data()), msg.len);
    if (msg.tag == kSqlFinalTag) {
      co_return sql;
    }
  }
}

Task<> SendShutdown(urpc::Channel& ch) {
  urpc::Message poison;
  poison.tag = kShutdownTag;
  co_await ch.Send(poison);
}

Task<std::string> ServeQuery(hw::Machine& machine, int core, const Database& db,
                             const std::string& sql) {
  auto result = db.Query(sql);
  std::string rendered;
  std::uint64_t scanned = 0;
  if (const auto* rs = std::get_if<Database::ResultSet>(&result)) {
    scanned = rs->rows_scanned;
    for (const auto& row : rs->rows) {
      for (const auto& v : row) {
        rendered += DbValueToString(v);
        rendered += '|';
      }
      rendered += '\n';
    }
  } else {
    rendered = "error: " + std::get<DbError>(result).message;
  }
  co_await machine.Compute(core, StatementCost(scanned));
  co_return rendered;
}

}  // namespace mk::apps
