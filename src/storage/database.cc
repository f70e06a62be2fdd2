#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "plan/stats.h"
#include "util/string_util.h"

namespace seprec {

namespace {

// A '$' name is evaluation scratch, whatever it ends with.
bool IsStoredRowsName(std::string_view name) {
  return name.size() > 1 && !name.starts_with("$") && name.ends_with("'");
}

// `rel` when it has `arity`; a clash is INVALID_ARGUMENT.
StatusOr<Relation*> OfArity(Relation* rel, size_t arity) {
  if (rel->arity() == arity) return rel;
  return InvalidArgumentError(StrCat("relation '", rel->name(),
                                     "' already exists with arity ",
                                     rel->arity(), ", requested ", arity));
}

}  // namespace

std::string Database::StoredRowsName(std::string_view predicate) {
  return StrCat(predicate, "'");
}

Status Database::CheckRelationName(std::string_view name) {
  if (name.size() > kMaxRelationNameBytes) {
    return InvalidArgumentError(
        StrCat("relation name of ", name.size(), " bytes exceeds the ",
               kMaxRelationNameBytes, "-byte limit"));
  }
  if (!IsStoredRowsName(name)) return Status::OK();
  return InvalidArgumentError(
      StrCat("relation name '", name, "' is reserved for stored rows"));
}

Database::Database()
    : base_(nullptr), root_(this), stats_(std::make_unique<StatsCatalog>()) {}

Database::Database(Database* base)
    : base_(base), root_(base->root_), accountant_(&base->accountant_) {}

Database::~Database() {
  if (base_ != nullptr) Discard();
}

void Database::Destroy(std::unique_ptr<Relation> relation) {
  stats().Forget(relation.get());
}

StatusOr<Relation*> Database::CreateRelation(std::string_view name,
                                             size_t arity) {
  SEPREC_RETURN_IF_ERROR(CheckRelationName(name));
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) return OfArity(it->second.get(), arity);
  auto relation = std::make_unique<Relation>(std::string(name), arity);
  Relation* ptr = relation.get();
  ptr->SetAccountant(&accountant());
  ptr->SetCounters(&counters());
  relations_.emplace(std::string(name), std::move(relation));
  return ptr;
}

StatusOr<Relation*> Database::FindOrCreate(std::string_view name,
                                           size_t arity) {
  Relation* rel = Find(name);
  if (rel != nullptr) return OfArity(rel, arity);
  return (name.starts_with("$") ? this : root_)->CreateRelation(name, arity);
}

Relation* Database::Find(std::string_view name) {
  if (IsStoredRowsName(name)) {
    return root_->Find(name.substr(0, name.size() - 1));
  }
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) return it->second.get();
  return base_ == nullptr ? nullptr : base_->Find(name);
}

const Relation* Database::Find(std::string_view name) const {
  return const_cast<Database*>(this)->Find(name);
}

Status Database::AddFact(std::string_view relation,
                         std::initializer_list<std::string_view> symbols) {
  SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                          CreateRelation(relation, symbols.size()));
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (std::string_view s : symbols) {
    row.push_back(this->symbols().Intern(s));
  }
  // Bump only when the row was genuinely new: a duplicate fact leaves the
  // stored data untouched, and generation-keyed caches (the query
  // service's closure cache) must survive no-op mutations.
  if (rel->Insert(Row(row.data(), row.size()))) BumpGeneration();
  return Status::OK();
}

Status Database::AddFact(std::string_view relation,
                         const std::vector<std::string>& symbols) {
  SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                          CreateRelation(relation, symbols.size()));
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (const std::string& s : symbols) {
    row.push_back(this->symbols().Intern(s));
  }
  if (rel->Insert(Row(row.data(), row.size()))) BumpGeneration();
  return Status::OK();
}

void Database::Drop(std::string_view name) {
  auto it = relations_.find(std::string(name));
  if (it == relations_.end()) return;
  Destroy(std::move(it->second));
  relations_.erase(it);
  if (base_ == nullptr && !name.starts_with("$")) {
    // Dropping user-visible data invalidates derived caches; scratch
    // relations ('$'-prefixed) come and go with every evaluation and
    // never feed a cache key. An overlay's relations were never stored.
    BumpGeneration();
  }
}

void Database::Clear() {
  SEPREC_CHECK(base_ != nullptr);
  for (auto& [name, rel] : relations_) rel->Clear();
}

void Database::Discard() {
  SEPREC_CHECK(base_ != nullptr);
  // The root's catalog outlives this layer's relations: forget what it
  // cached about them, so a later relation at the same address cannot
  // inherit an entry.
  for (auto& [name, rel] : relations_) Destroy(std::move(rel));
  relations_.clear();
}

void Database::Commit() {
  SEPREC_CHECK(base_ != nullptr);
  for (auto& [name, rel] : relations_) {
    auto it = base_->relations_.find(name);
    if (it == base_->relations_.end()) {
      rel->SetAccountant(&base_->accountant_);
      base_->relations_.emplace(name, std::move(rel));
    } else {
      it->second->InsertAll(*rel);
      Destroy(std::move(rel));
    }
  }
  relations_.clear();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    total += rel->size();
  }
  return total;
}

}  // namespace seprec
