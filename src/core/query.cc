#include "core/query.h"

namespace seprec {

std::vector<bool> BoundPositions(const Atom& query) {
  std::vector<bool> bound(query.args.size(), false);
  for (size_t i = 0; i < query.args.size(); ++i) {
    bound[i] = query.args[i].IsConstant();
  }
  return bound;
}

size_t NumBoundPositions(const Atom& query) {
  size_t n = 0;
  for (const Term& arg : query.args) {
    if (arg.IsConstant()) ++n;
  }
  return n;
}

std::vector<std::optional<Value>> ResolveConstants(const Atom& query,
                                                   const SymbolTable& symbols,
                                                   bool* resolvable) {
  *resolvable = true;
  std::vector<std::optional<Value>> out(query.args.size());
  for (size_t i = 0; i < query.args.size(); ++i) {
    const Term& arg = query.args[i];
    if (arg.IsVar()) continue;
    if (arg.kind == Term::Kind::kInt) {
      out[i] = Value::Int(arg.int_value);
      continue;
    }
    Value v;
    if (!symbols.TryFind(arg.name, &v)) {
      *resolvable = false;
      return out;
    }
    out[i] = v;
  }
  return out;
}

bool RowMatchesQuery(Row row, const Atom& query,
                     const std::vector<std::optional<Value>>& constants) {
  SEPREC_CHECK(row.size() == query.args.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (constants[i].has_value()) {
      if (row[i] != *constants[i]) return false;
      continue;
    }
    // A repeated variable must equal the column of its first occurrence.
    const std::string& var = query.args[i].name;
    for (size_t j = 0; j < i; ++j) {
      if (!constants[j].has_value() && query.args[j].name == var) {
        if (row[j] != row[i]) return false;
        break;
      }
    }
  }
  return true;
}

Answer SelectMatching(const Relation& rel, const Atom& query,
                      const SymbolTable& symbols) {
  Answer answer(query.args.size());
  SEPREC_CHECK(rel.arity() == query.args.size());
  bool resolvable = false;
  std::vector<std::optional<Value>> constants =
      ResolveConstants(query, symbols, &resolvable);
  if (!resolvable) return answer;
  rel.ForEachRow([&](Row row) {
    if (RowMatchesQuery(row, query, constants)) {
      answer.Add(row);
    }
  });
  return answer;
}

}  // namespace seprec
