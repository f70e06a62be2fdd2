#include "core/answer.h"

#include <algorithm>

namespace seprec {

std::vector<std::string> Answer::ToStrings(const SymbolTable& symbols) const {
  std::vector<std::string> out;
  out.reserve(size());
  {
    // One read lock for the whole answer, not one per symbol.
    SymbolTable::Reader reader(symbols);
    for (size_t r = 0; r < size(); ++r) {
      Row tuple = row(r);
      std::string line = "(";
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) line += ", ";
        reader.Append(tuple[i], &line);
      }
      line += ")";
      out.push_back(std::move(line));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace seprec
