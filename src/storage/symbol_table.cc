#include "storage/symbol_table.h"

#include <charconv>
#include <limits>
#include <mutex>

#include "util/logging.h"

namespace seprec {

Value SymbolTable::Intern(std::string_view name) {
  {
    // Fast path: almost every Intern after warm-up finds an existing id.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      return Value::Symbol(it->second);
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned `name` between the locks.
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return Value::Symbol(it->second);
  }
  SEPREC_CHECK(names_.size() < std::numeric_limits<uint32_t>::max());
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string_view(names_.back()), id);
  return Value::Symbol(id);
}

bool SymbolTable::TryFind(std::string_view name, Value* value) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return false;
  }
  *value = Value::Symbol(it->second);
  return true;
}

const std::string& SymbolTable::NameOf(uint32_t id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SEPREC_CHECK(id < names_.size());
  // Safe to return after unlocking: ids are never reassigned and the deque
  // never moves stored strings.
  return names_[id];
}

std::string SymbolTable::ToString(Value v) const {
  std::string out;
  Reader(*this).Append(v, &out);
  return out;
}

void SymbolTable::Reader::Append(Value v, std::string* out) const {
  if (v.is_int()) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.as_int());
    SEPREC_CHECK(ec == std::errc());
    out->append(buf, end);
    return;
  }
  SEPREC_CHECK(v.symbol_id() < table_.names_.size());
  out->append(table_.names_[v.symbol_id()]);
}

size_t SymbolTable::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return names_.size();
}

}  // namespace seprec
