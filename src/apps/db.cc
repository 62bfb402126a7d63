#include "apps/db.h"

#include <cctype>
#include <charconv>
#include <numeric>
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
    ++pos;
    return std::string(1, c);
  }

  std::string Peek() {
    std::size_t saved = pos;
    std::string t = Next();
    pos = saved;
    return t;
  }

  // Accepts only the end of the statement, optionally after one ';'. Any
  // other token is an extra clause the engine does not speak, so the whole
  // statement is rejected rather than run without it.
  std::optional<DbError> ExpectEnd() {
    std::string t = Next();
    if (t == ";") {
      t = Next();
    }
    if (t.empty()) {
      return std::nullopt;
    }
    return DbError{"trailing tokens: " + t};
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
  std::visit(
      [&where, &out](const auto& values) {
        const auto& lit = std::get<ElementOf<decltype(values)>>(where.val);
        for (std::size_t r = 0; r < values.size(); ++r) {
          if (values[r] == lit) {
            out.push_back(r);
          }
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
  const std::string op = tok.Next();
  if (op != "=") {
    return DbError{"unknown WHERE operator: " + op};
  }
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
    if (auto err = tok.ExpectEnd()) {
      return err;
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
    if (auto err = tok.ExpectEnd()) {
      return err;
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
    return std::nullopt;
  }
  return DbError{"unsupported statement: " + verb};
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
  while (true) {
    std::string c = tok.Next();
    if (c.empty()) {
      return DbError{"bad column list"};
    }
    cols.push_back(c);
    if (tok.Peek() != ",") {
      break;
    }
    tok.Next();
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
  if (tok.Peek() == "WHERE") {
    tok.Next();
    if (auto err = ParseWhere(tok, table, &where)) {
      return *err;
    }
  }
  std::int64_t limit = -1;
  if (tok.Peek() == "LIMIT") {
    tok.Next();
    std::string lit = tok.Next();
    if (!IsIntLiteral(lit) || !ParseInt64(lit, &limit) || limit < 0) {
      return DbError{"bad LIMIT"};
    }
  }
  if (auto err = tok.ExpectEnd()) {
    return *err;
  }

  std::vector<int> proj;
  for (const auto& c : cols) {
    int idx = table.ColumnIndex(c);
    if (idx < 0) {
      return DbError{"no such column: " + c};
    }
    proj.push_back(idx);
  }

  ResultSet rs;
  rs.rows_scanned = table.row_count;
  for (std::size_t r : Scan(table, where)) {
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

}  // namespace mk::apps
