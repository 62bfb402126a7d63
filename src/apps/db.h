// A small relational engine standing in for SQLite in the section 5.4 web
// workload. It speaks exactly what the workloads send: CREATE TABLE, INSERT,
// and the TPC-W item-detail SELECT (SELECT cols FROM table [WHERE col = value]
// [LIMIT n]). Any other statement or clause is an error that changes no table.
//
// Tables are stored column by column: one typed array per column, so a
// WHERE reads one contiguous array. Query execution is real (scan, filter,
// limit); the simulated cost charged by the serving process is derived from
// the rows scanned, which is always the table's row count, so the
// "bottlenecked at the SQLite server core" behavior of the paper reproduces.
#ifndef MK_APPS_DB_H_
#define MK_APPS_DB_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace mk::apps {

using DbValue = std::variant<std::int64_t, std::string>;

std::string DbValueToString(const DbValue& v);

struct DbError {
  std::string message;
};

class Database {
 public:
  // Executes CREATE TABLE t (col INT|TEXT, ...) or INSERT INTO t VALUES
  // (v, ...). Returns an error message on failure.
  std::optional<DbError> Exec(const std::string& sql);

  struct ResultSet {
    std::vector<std::vector<DbValue>> rows;
    std::uint64_t rows_scanned = 0;  // cost basis for the simulation
  };

  // Executes SELECT col [, col]* FROM t [WHERE col = lit] [LIMIT n]. A WHERE
  // literal whose type is not the column's is an error.
  std::variant<ResultSet, DbError> Query(const std::string& sql) const;

  std::size_t TableRows(const std::string& name) const;
  // Rows across all tables: the size basis for replica state transfer.
  std::size_t TotalRows() const;

 private:
  // One typed array per column, INT or TEXT; each holds row_count values.
  using ColumnData = std::variant<std::vector<std::int64_t>, std::vector<std::string>>;
  struct Column {
    std::string name;
    ColumnData values;
    bool Holds(const DbValue& v) const {
      return std::holds_alternative<std::vector<std::int64_t>>(values) ==
             std::holds_alternative<std::int64_t>(v);
    }
  };
  struct Table {
    std::vector<Column> columns;
    std::size_t row_count = 0;
    int ColumnIndex(const std::string& name) const;
  };
  struct WhereClause {
    int col = -1;  // -1: no WHERE, every row matches
    DbValue val;   // of the column's type: ParseWhere rejects a mismatch
  };
  // Indexes of the rows `where` selects, in table order, from one equality
  // pass over the WHERE column.
  static std::vector<std::size_t> Scan(const Table& table, const WhereClause& where);
  static std::optional<DbError> ParseWhere(class DbTokenizer& tok, const Table& table,
                                           WhereClause* out);
  std::map<std::string, Table> tables_;
};

}  // namespace mk::apps

#endif  // MK_APPS_DB_H_
