#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "plan/stats.h"
#include "util/string_util.h"

namespace seprec {

Database::Database() = default;
Database::~Database() = default;

StatusOr<Relation*> Database::CreateRelation(std::string_view name,
                                             size_t arity) {
  if (name.size() > kMaxRelationNameBytes) {
    return InvalidArgumentError(
        StrCat("relation name of ", name.size(), " bytes exceeds the ",
               kMaxRelationNameBytes, "-byte limit"));
  }
  auto it = relations_.find(std::string(name));
  if (it != relations_.end()) {
    if (it->second->arity() != arity) {
      return InvalidArgumentError(
          StrCat("relation '", name, "' already exists with arity ",
                 it->second->arity(), ", requested ", arity));
    }
    return it->second.get();
  }
  auto relation = std::make_unique<Relation>(std::string(name), arity);
  Relation* ptr = relation.get();
  ptr->SetAccountant(&accountant_);
  ptr->SetCounters(&counters_);
  ptr->SetJournal(&journal_);
  if (journal_.open_id != 0) journal_.created.emplace_back(name);
  relations_.emplace(std::string(name), std::move(relation));
  return ptr;
}

Relation* Database::Find(std::string_view name) {
  auto it = relations_.find(std::string(name));
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(std::string_view name) const {
  auto it = relations_.find(std::string(name));
  return it == relations_.end() ? nullptr : it->second.get();
}

Status Database::AddFact(std::string_view relation,
                         std::initializer_list<std::string_view> symbols) {
  SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                          CreateRelation(relation, symbols.size()));
  std::vector<Value> row;
  row.reserve(symbols.size());
  for (std::string_view s : symbols) {
    row.push_back(symbols_.Intern(s));
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
    row.push_back(symbols_.Intern(s));
  }
  if (rel->Insert(Row(row.data(), row.size()))) BumpGeneration();
  return Status::OK();
}

void Database::Drop(std::string_view name, bool bump_generation) {
  auto it = relations_.find(std::string(name));
  if (it == relations_.end()) return;
  const Relation* rel = it->second.get();
  if (stats_ != nullptr) stats_->Forget(rel);
  if (journal_.open_id != 0) {
    std::erase_if(journal_.pre_images,
                  [rel](const WriteJournal::PreImage& pre) {
                    return pre.relation == rel;
                  });
  }
  relations_.erase(it);
  if (bump_generation && !name.starts_with("$")) {
    // Dropping user-visible data invalidates derived caches; scratch
    // relations ('$'-prefixed) come and go with every evaluation and
    // never feed a cache key.
    BumpGeneration();
  }
}

void Database::OpenJournal() {
  SEPREC_CHECK(journal_.open_id == 0 &&
               "a DatabaseCheckpoint is already open on this database "
               "(checkpoints do not nest)");
  journal_.open_id = ++journal_opens_;
}

WriteJournal Database::CloseJournal() {
  return std::exchange(journal_, WriteJournal());
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

StatsCatalog& Database::stats() {
  // Lazy: most Database instances (tests, scratch) never plan anything.
  // Callers that reach this from several threads do so under the owner's
  // database lock (the query service's db_mu_), matching every other
  // catalog mutation; the catalog's own operations are mutex-guarded.
  if (stats_ == nullptr) stats_ = std::make_unique<StatsCatalog>();
  return *stats_;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    total += rel->size();
  }
  return total;
}

}  // namespace seprec
