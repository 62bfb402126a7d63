#include "apps/db.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <string_view>
#include <utility>

namespace mk::apps {

// --- Tokenizer (file-local; forward-declared in db.h for member signatures) ---

class DbTokenizer {
 public:
  explicit DbTokenizer(const std::string& sql) : s(sql) {}

  // Returns the next token: identifiers/keywords are upper-cased except
  // quoted strings; punctuation is single characters; "" at end.
  std::string Next() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
    if (pos >= s.size()) {
      return "";
    }
    char c = s[pos];
    if (c == '\'') {
      // String literal (single quotes; '' escapes a quote).
      std::string out = "'";
      ++pos;
      while (pos < s.size()) {
        if (s[pos] == '\'' && pos + 1 < s.size() && s[pos + 1] == '\'') {
          out += '\'';
          pos += 2;
          continue;
        }
        if (s[pos] == '\'') {
          ++pos;
          break;
        }
        out += s[pos++];
      }
      return out;  // leading quote marks it a string literal
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') {
      std::string out;
      while (pos < s.size() && (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                                s[pos] == '_' || s[pos] == '-')) {
        out += static_cast<char>(std::toupper(static_cast<unsigned char>(s[pos])));
        ++pos;
      }
      return out;
    }
    if ((c == '<' || c == '>' || c == '!') && pos + 1 < s.size() && s[pos + 1] == '=') {
      pos += 2;
      return std::string{c, '='};
    }
    ++pos;
    return std::string(1, c);
  }

  std::string Peek() {
    std::size_t saved = pos;
    std::string t = Next();
    pos = saved;
    return t;
  }

  const std::string& s;
  std::size_t pos = 0;
};

namespace {

bool IsIntLiteral(const std::string& t) {
  if (t.empty() || t[0] == '\'') {
    return false;
  }
  std::size_t i = t[0] == '-' ? 1 : 0;
  if (i >= t.size()) {
    return false;
  }
  for (; i < t.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
      return false;
    }
  }
  return true;
}

// Overflow-safe integer parse. The old std::stoll threw std::out_of_range on
// a 20-digit literal, and nothing caught it — one malformed INSERT through
// the write path killed the whole process.
bool ParseInt64(const std::string& t, std::int64_t* out) {
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), *out);
  return ec == std::errc() && ptr == t.data() + t.size();
}

std::optional<DbValue> LiteralValue(const std::string& t) {
  if (!t.empty() && t[0] == '\'') {
    return DbValue{t.substr(1)};
  }
  std::int64_t v = 0;
  if (!ParseInt64(t, &v)) {
    return std::nullopt;
  }
  return DbValue{v};
}

int Compare(const DbValue& a, const DbValue& b) {
  if (a.index() != b.index()) {
    return a.index() < b.index() ? -1 : 1;
  }
  if (std::holds_alternative<std::int64_t>(a)) {
    auto x = std::get<std::int64_t>(a);
    auto y = std::get<std::int64_t>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const auto& x = std::get<std::string>(a);
  const auto& y = std::get<std::string>(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

std::string DbValueToString(const DbValue& v) {
  if (std::holds_alternative<std::int64_t>(v)) {
    return std::to_string(std::get<std::int64_t>(v));
  }
  return std::get<std::string>(v);
}

int Database::Table::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool Database::WhereClause::Matches(const std::vector<DbValue>& row) const {
  if (col < 0) {
    return true;
  }
  const int cmp = Compare(row[static_cast<std::size_t>(col)], val);
  switch (op) {
    case WhereOp::kEq: return cmp == 0;
    case WhereOp::kNe: return cmp != 0;
    case WhereOp::kLt: return cmp < 0;
    case WhereOp::kLe: return cmp <= 0;
    case WhereOp::kGt: return cmp > 0;
    case WhereOp::kGe: return cmp >= 0;
  }
  return false;
}

std::optional<DbError> Database::ParseWhere(DbTokenizer& tok, const Table& table,
                                            WhereClause* out) {
  std::string col = tok.Next();
  out->col = table.ColumnIndex(col);
  if (out->col < 0) {
    return DbError{"no such column: " + col};
  }
  static constexpr std::pair<std::string_view, WhereOp> kOps[] = {
      {"=", WhereOp::kEq},  {"!=", WhereOp::kNe}, {"<", WhereOp::kLt},
      {"<=", WhereOp::kLe}, {">", WhereOp::kGt},  {">=", WhereOp::kGe},
  };
  const std::string op = tok.Next();
  const auto* known = std::find_if(std::begin(kOps), std::end(kOps),
                                   [&op](const auto& entry) { return entry.first == op; });
  if (known == std::end(kOps)) {
    return DbError{"unknown WHERE operator: " + op};
  }
  out->op = known->second;
  std::string lit = tok.Next();
  if (lit.empty() || (!IsIntLiteral(lit) && lit[0] != '\'')) {
    return DbError{"bad literal in WHERE"};
  }
  std::optional<DbValue> v = LiteralValue(lit);
  if (!v.has_value()) {
    return DbError{"integer literal out of range: " + lit};
  }
  out->val = std::move(*v);
  return std::nullopt;
}

std::optional<DbError> Database::Exec(const std::string& sql) {
  // Per-statement counters: stale values from an earlier UPDATE/DELETE must
  // not leak into the next statement's accounting (or its simulated cost).
  rows_changed_ = 0;
  last_exec_scanned_ = 0;
  DbTokenizer tok(sql);
  std::string verb = tok.Next();
  if (verb == "CREATE") {
    if (tok.Next() != "TABLE") {
      return DbError{"expected TABLE"};
    }
    std::string name = tok.Next();
    if (name.empty() || tok.Next() != "(") {
      return DbError{"expected table name and column list"};
    }
    Table table;
    while (true) {
      std::string col = tok.Next();
      std::string type = tok.Next();
      if (col.empty() || (type != "INT" && type != "TEXT")) {
        return DbError{"bad column definition"};
      }
      table.columns.push_back(Column{col, type == "INT"});
      std::string sep = tok.Next();
      if (sep == ")") {
        break;
      }
      if (sep != ",") {
        return DbError{"expected , or )"};
      }
    }
    if (tables_.count(name) != 0) {
      return DbError{"table exists: " + name};
    }
    tables_[name] = std::move(table);
    return std::nullopt;
  }
  if (verb == "INSERT") {
    if (tok.Next() != "INTO") {
      return DbError{"expected INTO"};
    }
    std::string name = tok.Next();
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return DbError{"no such table: " + name};
    }
    if (tok.Next() != "VALUES" || tok.Next() != "(") {
      return DbError{"expected VALUES ("};
    }
    std::vector<DbValue> row;
    while (true) {
      std::string lit = tok.Next();
      if (lit.empty()) {
        return DbError{"unterminated VALUES"};
      }
      std::optional<DbValue> v = LiteralValue(lit);
      if (!v.has_value()) {
        return DbError{"integer literal out of range: " + lit};
      }
      row.push_back(std::move(*v));
      std::string sep = tok.Next();
      if (sep == ")") {
        break;
      }
      if (sep != ",") {
        return DbError{"expected , or )"};
      }
    }
    if (row.size() != it->second.columns.size()) {
      return DbError{"value count mismatch"};
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      bool want_int = it->second.columns[i].is_int;
      if (want_int != std::holds_alternative<std::int64_t>(row[i])) {
        return DbError{"type mismatch in column " + it->second.columns[i].name};
      }
    }
    it->second.rows.push_back(std::move(row));
    ++rows_inserted_;
    return std::nullopt;
  }
  if (verb == "UPDATE") {
    return ExecUpdate(tok);
  }
  if (verb == "DELETE") {
    return ExecDelete(tok);
  }
  return DbError{"unsupported statement: " + verb};
}

// UPDATE t SET col = lit [, col = lit]* [WHERE col op lit]
//
// Two-phase on purpose: matching row indexes are collected against the
// table's pre-statement values first, and assignments run second. Mutating
// while scanning aliases the WHERE column with the SET column — a statement
// like UPDATE items SET i_stock = 0 WHERE i_stock > 0 must evaluate every
// row's predicate against the value it had when the statement began.
std::optional<DbError> Database::ExecUpdate(DbTokenizer& tok) {
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return DbError{"no such table: " + name};
  }
  Table& table = it->second;
  if (tok.Next() != "SET") {
    return DbError{"expected SET"};
  }
  std::vector<std::pair<int, DbValue>> assignments;
  while (true) {
    std::string col = tok.Next();
    int idx = table.ColumnIndex(col);
    if (idx < 0) {
      return DbError{"no such column: " + col};
    }
    if (tok.Next() != "=") {
      return DbError{"expected = in SET"};
    }
    std::string lit = tok.Next();
    std::optional<DbValue> v = LiteralValue(lit);
    if (lit.empty() || !v.has_value()) {
      return DbError{"bad literal in SET: " + lit};
    }
    if (table.columns[static_cast<std::size_t>(idx)].is_int !=
        std::holds_alternative<std::int64_t>(*v)) {
      return DbError{"type mismatch in column " + col};
    }
    assignments.emplace_back(idx, std::move(*v));
    if (tok.Peek() == ",") {
      tok.Next();
      continue;
    }
    break;
  }
  WhereClause where;
  std::string kw = tok.Next();
  if (kw == "WHERE") {
    if (auto err = ParseWhere(tok, table, &where)) {
      return err;
    }
    kw = tok.Next();
  }
  if (!kw.empty() && kw != ";") {
    return DbError{"trailing tokens: " + kw};
  }
  std::vector<std::size_t> matched;
  last_exec_scanned_ = table.rows.size();
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    if (where.Matches(table.rows[r])) {
      matched.push_back(r);
    }
  }
  for (std::size_t r : matched) {
    for (const auto& [idx, v] : assignments) {
      table.rows[r][static_cast<std::size_t>(idx)] = v;
    }
  }
  rows_changed_ = matched.size();
  return std::nullopt;
}

// DELETE FROM t [WHERE col op lit]
std::optional<DbError> Database::ExecDelete(DbTokenizer& tok) {
  if (tok.Next() != "FROM") {
    return DbError{"expected FROM"};
  }
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return DbError{"no such table: " + name};
  }
  Table& table = it->second;
  WhereClause where;
  std::string kw = tok.Next();
  if (kw == "WHERE") {
    if (auto err = ParseWhere(tok, table, &where)) {
      return err;
    }
    kw = tok.Next();
  }
  if (!kw.empty() && kw != ";") {
    return DbError{"trailing tokens: " + kw};
  }
  last_exec_scanned_ = table.rows.size();
  std::size_t before = table.rows.size();
  std::erase_if(table.rows,
                [&where](const std::vector<DbValue>& row) { return where.Matches(row); });
  rows_changed_ = before - table.rows.size();
  return std::nullopt;
}

std::variant<Database::ResultSet, DbError> Database::Query(const std::string& sql) const {
  DbTokenizer tok(sql);
  if (tok.Next() != "SELECT") {
    return DbError{"expected SELECT"};
  }
  std::vector<std::string> cols;
  bool star = false;
  while (true) {
    std::string c = tok.Next();
    if (c == "*") {
      star = true;
    } else if (!c.empty()) {
      cols.push_back(c);
    } else {
      return DbError{"bad column list"};
    }
    std::string sep = tok.Peek();
    if (sep == ",") {
      tok.Next();
      continue;
    }
    break;
  }
  if (tok.Next() != "FROM") {
    return DbError{"expected FROM"};
  }
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return DbError{"no such table: " + name};
  }
  const Table& table = it->second;

  WhereClause where;
  int order_col = -1;
  bool order_desc = false;
  std::int64_t limit = -1;

  std::string kw = tok.Next();
  if (kw == "WHERE") {
    if (auto err = ParseWhere(tok, table, &where)) {
      return *err;
    }
    kw = tok.Next();
  }
  if (kw == "ORDER") {
    if (tok.Next() != "BY") {
      return DbError{"expected BY"};
    }
    std::string col = tok.Next();
    order_col = table.ColumnIndex(col);
    if (order_col < 0) {
      return DbError{"no such column: " + col};
    }
    if (tok.Peek() == "DESC") {
      tok.Next();
      order_desc = true;
    } else if (tok.Peek() == "ASC") {
      tok.Next();
    }
    kw = tok.Next();
  }
  if (kw == "LIMIT") {
    std::string lit = tok.Next();
    if (!IsIntLiteral(lit) || !ParseInt64(lit, &limit)) {
      return DbError{"bad LIMIT"};
    }
    kw = tok.Next();
  }
  if (!kw.empty() && kw != ";") {
    return DbError{"trailing tokens: " + kw};
  }

  ResultSet rs;
  std::vector<int> proj;
  if (star) {
    for (std::size_t i = 0; i < table.columns.size(); ++i) {
      proj.push_back(static_cast<int>(i));
      rs.columns.push_back(table.columns[i].name);
    }
  } else {
    for (const auto& c : cols) {
      int idx = table.ColumnIndex(c);
      if (idx < 0) {
        return DbError{"no such column: " + c};
      }
      proj.push_back(idx);
      rs.columns.push_back(c);
    }
  }

  std::vector<const std::vector<DbValue>*> selected;
  for (const auto& row : table.rows) {
    ++rs.rows_scanned;
    if (where.Matches(row)) {
      selected.push_back(&row);
    }
  }
  if (order_col >= 0) {
    std::stable_sort(selected.begin(), selected.end(),
                     [order_col, order_desc](const auto* a, const auto* b) {
                       int cmp = Compare((*a)[static_cast<std::size_t>(order_col)],
                                         (*b)[static_cast<std::size_t>(order_col)]);
                       return order_desc ? cmp > 0 : cmp < 0;
                     });
  }
  for (const auto* row : selected) {
    if (limit >= 0 && static_cast<std::int64_t>(rs.rows.size()) >= limit) {
      break;
    }
    std::vector<DbValue> out;
    for (int idx : proj) {
      out.push_back((*row)[static_cast<std::size_t>(idx)]);
    }
    rs.rows.push_back(std::move(out));
  }
  return rs;
}

std::size_t Database::TableRows(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.rows.size();
}

std::size_t Database::TotalRows() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.rows.size();
  }
  return total;
}

bool Database::HasTable(const std::string& name) const { return tables_.count(name) != 0; }

}  // namespace mk::apps
