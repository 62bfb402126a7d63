#include "apps/db.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <functional>
#include <iterator>
#include <numeric>
#include <string_view>
#include <type_traits>
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

  // False when a string literal runs to the end of the statement without its
  // closing quote. Next() would hand back the rest of the statement as the
  // literal, so the caller rejects the statement before parsing it.
  bool LiteralsClosed() const {
    bool open = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '\'') {
        continue;
      }
      if (open && i + 1 < s.size() && s[i + 1] == '\'') {
        ++i;  // '' inside a literal is an escaped quote
        continue;
      }
      open = !open;
    }
    return !open;
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

// The element type of a column array seen through std::visit.
template <typename Values>
using ElementOf = typename std::remove_cvref_t<Values>::value_type;

// Appends the index of every r with pred(values[r], lit) to `out`.
template <typename T, typename Pred>
void CollectMatches(const std::vector<T>& values, const T& lit, Pred pred,
                    std::vector<std::size_t>* out) {
  for (std::size_t r = 0; r < values.size(); ++r) {
    if (pred(values[r], lit)) {
      out->push_back(r);
    }
  }
}

// Drops every values[r] whose keep[r] is false; the rest keep their order.
template <typename T>
void Compact(std::vector<T>* values, const std::vector<bool>& keep) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < values->size(); ++r) {
    if (!keep[r]) {
      continue;
    }
    if (w != r) {
      (*values)[w] = std::move((*values)[r]);
    }
    ++w;
  }
  values->resize(w);
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

std::vector<std::size_t> Database::Scan(const Table& table, const WhereClause& where) {
  std::vector<std::size_t> out;
  if (where.col < 0) {
    out.resize(table.row_count);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
  }
  // The operator is picked once per statement; the loop runs typed.
  std::visit(
      [&where, &out](const auto& values) {
        const auto& lit = std::get<ElementOf<decltype(values)>>(where.val);
        switch (where.op) {
          case WhereOp::kEq: return CollectMatches(values, lit, std::equal_to<>(), &out);
          case WhereOp::kNe: return CollectMatches(values, lit, std::not_equal_to<>(), &out);
          case WhereOp::kLt: return CollectMatches(values, lit, std::less<>(), &out);
          case WhereOp::kLe: return CollectMatches(values, lit, std::less_equal<>(), &out);
          case WhereOp::kGt: return CollectMatches(values, lit, std::greater<>(), &out);
          case WhereOp::kGe: return CollectMatches(values, lit, std::greater_equal<>(), &out);
        }
      },
      table.columns[static_cast<std::size_t>(where.col)].values);
  return out;
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
  if (!table.columns[static_cast<std::size_t>(out->col)].Holds(*v)) {
    return DbError{"type mismatch in WHERE column " + col};
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
  if (!tok.LiteralsClosed()) {
    return DbError{"unterminated string literal"};
  }
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
      Column column{col, {}};  // an INT array unless declared TEXT
      if (type == "TEXT") {
        column.values.emplace<std::vector<std::string>>();
      }
      table.columns.push_back(std::move(column));
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
    Table& table = it->second;
    if (row.size() != table.columns.size()) {
      return DbError{"value count mismatch"};
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!table.columns[i].Holds(row[i])) {
        return DbError{"type mismatch in column " + table.columns[i].name};
      }
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::visit(
          [&v = row[i]](auto& values) {
            values.push_back(std::get<ElementOf<decltype(values)>>(std::move(v)));
          },
          table.columns[i].values);
    }
    ++table.row_count;
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
    if (!table.columns[static_cast<std::size_t>(idx)].Holds(*v)) {
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
  last_exec_scanned_ = table.row_count;
  const std::vector<std::size_t> matched = Scan(table, where);
  for (const auto& [idx, v] : assignments) {
    std::visit(
        [&matched, &v](auto& values) {
          for (std::size_t r : matched) {
            values[r] = std::get<ElementOf<decltype(values)>>(v);
          }
        },
        table.columns[static_cast<std::size_t>(idx)].values);
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
  last_exec_scanned_ = table.row_count;
  const std::vector<std::size_t> matched = Scan(table, where);
  std::vector<bool> keep(table.row_count, true);
  for (std::size_t r : matched) {
    keep[r] = false;
  }
  for (Column& column : table.columns) {
    std::visit([&keep](auto& values) { Compact(&values, keep); }, column.values);
  }
  table.row_count -= matched.size();
  rows_changed_ = matched.size();
  return std::nullopt;
}

std::variant<Database::ResultSet, DbError> Database::Query(const std::string& sql) const {
  DbTokenizer tok(sql);
  if (!tok.LiteralsClosed()) {
    return DbError{"unterminated string literal"};
  }
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

  rs.rows_scanned = table.row_count;
  std::vector<std::size_t> selected = Scan(table, where);
  if (order_col >= 0) {
    // Stable: ties keep table (insertion) order.
    std::visit(
        [&selected, order_desc](const auto& values) {
          std::stable_sort(selected.begin(), selected.end(),
                           [&values, order_desc](std::size_t a, std::size_t b) {
                             return order_desc ? values[b] < values[a] : values[a] < values[b];
                           });
        },
        table.columns[static_cast<std::size_t>(order_col)].values);
  }
  for (std::size_t r : selected) {
    if (limit >= 0 && static_cast<std::int64_t>(rs.rows.size()) >= limit) {
      break;
    }
    std::vector<DbValue> out;
    for (int idx : proj) {
      out.push_back(std::visit([r](const auto& values) { return DbValue{values[r]}; },
                               table.columns[static_cast<std::size_t>(idx)].values));
    }
    rs.rows.push_back(std::move(out));
  }
  return rs;
}

std::size_t Database::TableRows(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.row_count;
}

std::size_t Database::TotalRows() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.row_count;
  }
  return total;
}

bool Database::HasTable(const std::string& name) const { return tables_.count(name) != 0; }

}  // namespace mk::apps
