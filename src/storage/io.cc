#include "storage/io.h"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {

TokenKind ClassifyToken(const std::string& token, int64_t* value) {
  if (token.empty()) return TokenKind::kSymbol;
  size_t start = token[0] == '-' ? 1 : 0;
  if (start == token.size()) return TokenKind::kSymbol;
  for (size_t i = start; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) {
      return TokenKind::kSymbol;
    }
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size() ||
      v > Value::kMaxInt || v < Value::kMinInt) {
    return TokenKind::kBadInt;
  }
  *value = v;
  return TokenKind::kInt;
}

StatusOr<TupleBatch> ParseRelationTsv(const Database& db,
                                      std::string_view name,
                                      std::istream& in) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("io.load_tsv"));
  TupleBatch batch;
  batch.relation = std::string(name);
  const Relation* existing = db.Find(name);
  bool have_arity = existing != nullptr;
  if (have_arity) batch.arity = existing->arity();
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> columns = StrSplit(line, '\t');
    if (!have_arity) {
      batch.arity = columns.size();
      have_arity = true;
    }
    if (columns.size() != batch.arity) {
      return InvalidArgumentError(
          StrCat("line ", line_number, ": expected ", batch.arity,
                 " columns for relation '", name, "', found ",
                 columns.size()));
    }
    std::vector<TypedCell> row;
    row.reserve(columns.size());
    for (std::string& column : columns) {
      int64_t v = 0;
      switch (ClassifyToken(column, &v)) {
        case TokenKind::kInt:
          row.push_back(TypedCell::Int(v));
          break;
        case TokenKind::kSymbol:
          row.push_back(TypedCell::Symbol(std::move(column)));
          break;
        case TokenKind::kBadInt:
          return InvalidArgumentError(
              StrCat("line ", line_number, ": integer '", column,
                     "' out of range for relation '", name, "'"));
      }
    }
    batch.rows.push_back(std::move(row));
  }
  if (!have_arity) {
    return InvalidArgumentError(
        StrCat("no data lines for relation '", name,
               "' and the relation does not already exist"));
  }
  return batch;
}

StatusOr<size_t> ApplyTupleBatch(Database* db, const TupleBatch& batch) {
  return ApplyTupleBatch(db, batch, nullptr);
}

StatusOr<size_t> ApplyTupleBatch(Database* db, const TupleBatch& batch,
                                 std::vector<std::vector<Value>>* changed) {
  if (changed != nullptr) changed->clear();
  if (batch.op == BatchOp::kDelete) {
    Relation* rel = db->Find(batch.relation);
    if (rel == nullptr) return size_t{0};  // nothing to delete from
    if (rel->arity() != batch.arity) {
      return InvalidArgumentError(
          StrCat("relation '", batch.relation, "' has arity ", rel->arity(),
                 ", delete batch has arity ", batch.arity));
    }
    // Stage the victims in a scratch relation so EraseRows does one
    // indexed pass; symbols are interned (not looked up) so replay after
    // a crash — when the victim symbols may not exist yet in a fresh
    // symbol table — behaves identically to the live apply.
    Relation victims("$delete_batch", batch.arity);
    std::vector<Value> row;
    for (const std::vector<TypedCell>& cells : batch.rows) {
      row.clear();
      row.reserve(cells.size());
      for (const TypedCell& cell : cells) {
        row.push_back(cell.is_int ? Value::Int(cell.int_value)
                                  : db->symbols().Intern(cell.symbol));
      }
      Row r(row.data(), row.size());
      if (victims.Insert(r) && changed != nullptr && rel->Contains(r)) {
        changed->push_back(row);
      }
    }
    size_t removed = rel->EraseRows(victims);
    if (removed > 0) db->BumpGeneration();
    return removed;
  }
  SEPREC_ASSIGN_OR_RETURN(Relation* rel,
                          db->CreateRelation(batch.relation, batch.arity));
  size_t added = 0;
  std::vector<Value> row;
  for (const std::vector<TypedCell>& cells : batch.rows) {
    row.clear();
    row.reserve(cells.size());
    for (const TypedCell& cell : cells) {
      row.push_back(cell.is_int ? Value::Int(cell.int_value)
                                : db->symbols().Intern(cell.symbol));
    }
    if (rel->Insert(Row(row.data(), row.size()))) {
      ++added;
      if (changed != nullptr) changed->push_back(row);
    }
  }
  if (added > 0) db->BumpGeneration();
  return added;
}

StatusOr<size_t> LoadRelationTsv(Database* db, std::string_view name,
                                 std::istream& in) {
  SEPREC_ASSIGN_OR_RETURN(TupleBatch batch, ParseRelationTsv(*db, name, in));
  return ApplyTupleBatch(db, batch);
}

StatusOr<size_t> LoadRelationTsvFile(Database* db, std::string_view name,
                                     const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(StrCat("cannot open '", path, "'"));
  }
  return LoadRelationTsv(db, name, in);
}

Status SaveRelationTsv(const Database& db, std::string_view name,
                       std::ostream& out) {
  SEPREC_RETURN_IF_ERROR(Failpoints::Check("io.save_tsv"));
  const Relation* rel = db.Find(name);
  if (rel == nullptr) {
    return NotFoundError(StrCat("no relation '", name, "'"));
  }
  rel->ForEachRow([&](Row row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << '\t';
      out << db.symbols().ToString(row[c]);
    }
    out << '\n';
  });
  return Status::OK();
}

Status SaveRelationTsvFile(const Database& db, std::string_view name,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgumentError(StrCat("cannot write '", path, "'"));
  }
  return SaveRelationTsv(db, name, out);
}

}  // namespace seprec
