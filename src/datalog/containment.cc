#include "datalog/containment.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace seprec {
namespace {

constexpr uint32_t kNone = UINT32_MAX;

// Names sorted and de-duplicated once, so a name's id is its rank.
class NameIds {
 public:
  void Reserve(size_t n) { names_.reserve(n); }
  void Add(std::string_view name) { names_.push_back(name); }
  void Seal() {
    std::sort(names_.begin(), names_.end());
    names_.erase(std::unique(names_.begin(), names_.end()), names_.end());
  }
  // The id of `name`, or kNone if it was never added.
  uint32_t Find(std::string_view name) const {
    auto it = std::lower_bound(names_.begin(), names_.end(), name);
    if (it == names_.end() || *it != name) return kNone;
    return static_cast<uint32_t>(it - names_.begin());
  }
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

 private:
  std::vector<std::string_view> names_;
};

// The terms of `specific`, each given an id so that two terms get the
// same id iff they are the same variable or the same constant. A variable
// never equals a constant: these are the canonical database's frozen
// values. `num_args` counts the arguments of q's atoms.
class SpecificTerms {
 public:
  SpecificTerms(const ConjunctiveQuery& q, size_t num_args) {
    vars_.Reserve(num_args + q.head.size());
    auto add = [this](const Term& t) {
      if (t.IsVar()) {
        vars_.Add(t.name);
      } else if (t.kind == Term::Kind::kInt) {
        ints_.push_back(t.int_value);
      } else {
        symbols_.Add(t.name);
      }
    };
    for (const Atom& atom : q.atoms) {
      for (const Term& t : atom.args) add(t);
    }
    for (const Term& t : q.head) add(t);
    vars_.Seal();
    symbols_.Seal();
    std::sort(ints_.begin(), ints_.end());
    ints_.erase(std::unique(ints_.begin(), ints_.end()), ints_.end());
  }

  // The id of a term of `specific`.
  uint32_t Id(const Term& t) const {
    return t.IsVar() ? vars_.Find(t.name) : ConstantId(t);
  }

  // The id of a constant, or kNone if `specific` never mentions it.
  uint32_t ConstantId(const Term& t) const {
    if (t.kind != Term::Kind::kInt) {
      uint32_t s = symbols_.Find(t.name);
      return s == kNone ? kNone : vars_.size() + s;
    }
    auto it = std::lower_bound(ints_.begin(), ints_.end(), t.int_value);
    if (it == ints_.end() || *it != t.int_value) return kNone;
    return vars_.size() + symbols_.size() +
           static_cast<uint32_t>(it - ints_.begin());
  }

 private:
  NameIds vars_;
  NameIds symbols_;
  std::vector<int64_t> ints_;
};

// An argument of a `general` atom: a variable (var != kNone) or the id of
// the constant it must meet in `specific` (kNone if it meets none).
struct Arg {
  uint32_t var = kNone;
  uint32_t value = kNone;
};

// The partial mapping of the search: each variable of `general` is
// unbound or bound to one term of `specific`, and the trail lists the
// bound variables in binding order so that a failed choice can be undone.
class MappingSearch {
 public:
  explicit MappingSearch(uint32_t num_vars) : binding_(num_vars, kNone) {
    trail_.reserve(num_vars);
  }

  // Binds or checks one argument against the term id `to`.
  bool Unify(Arg arg, uint32_t to) {
    if (arg.var == kNone) return arg.value == to;
    uint32_t& bound = binding_[arg.var];
    if (bound == kNone) {
      bound = to;
      trail_.push_back(arg.var);
      return true;
    }
    return bound == to;
  }

  // Undoes every binding made since the trail had `mark` entries.
  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      binding_[trail_.back()] = kNone;
      trail_.pop_back();
    }
  }

  size_t mark() const { return trail_.size(); }

 private:
  std::vector<uint32_t> binding_;
  std::vector<uint32_t> trail_;
};

}  // namespace

StatusOr<bool> Contains(const ConjunctiveQuery& general,
                        const ConjunctiveQuery& specific) {
  // The order of the checks up to the search decides what an input that
  // fails several of them gets; tests/containment_test.cc pins it against
  // the canonical-database algorithm. Every predicate gets one arity,
  // fixed where it is first used: `specific`'s atoms first, then
  // `general`'s.
  NameIds predicates;
  predicates.Reserve(specific.atoms.size() + general.atoms.size());
  for (const Atom& atom : specific.atoms) predicates.Add(atom.predicate);
  for (const Atom& atom : general.atoms) predicates.Add(atom.predicate);
  predicates.Seal();
  std::vector<uint32_t> arity(predicates.size(), kNone);
  auto check_arity = [&](const Atom& atom, uint32_t pred) -> Status {
    if (arity[pred] == kNone) {
      arity[pred] = static_cast<uint32_t>(atom.arity());
    } else if (arity[pred] != atom.arity()) {
      return InvalidArgumentError(
          StrCat("predicate '", atom.predicate, "' used with arity ",
                 arity[pred], " and ", atom.arity()));
    }
    return Status::OK();
  };
  std::vector<uint32_t> spec_pred(specific.atoms.size());
  for (size_t i = 0; i < specific.atoms.size(); ++i) {
    spec_pred[i] = predicates.Find(specific.atoms[i].predicate);
    SEPREC_RETURN_IF_ERROR(check_arity(specific.atoms[i], spec_pred[i]));
  }

  // A head variable that appears in no atom has no term to map to.
  size_t gen_num_args = 0;
  for (const Atom& atom : general.atoms) gen_num_args += atom.arity();
  NameIds vars;
  vars.Reserve(gen_num_args);
  for (const Atom& atom : general.atoms) {
    for (const Term& t : atom.args) {
      if (t.IsVar()) vars.Add(t.name);
    }
  }
  vars.Seal();
  for (const Term& t : general.head) {
    if (t.IsVar() && vars.Find(t.name) == kNone) return false;
  }

  std::vector<uint32_t> gen_pred(general.atoms.size());
  for (size_t i = 0; i < general.atoms.size(); ++i) {
    gen_pred[i] = predicates.Find(general.atoms[i].predicate);
    SEPREC_RETURN_IF_ERROR(check_arity(general.atoms[i], gen_pred[i]));
  }
  if (specific.head.size() != general.head.size()) {
    return InvalidArgumentError("head arities differ");
  }

  // `specific`'s atoms grouped by predicate, in input order within a
  // group: the candidates of predicate p are
  // by_pred[first[p] .. first[p + 1]).
  std::vector<uint32_t> first(predicates.size() + 1, 0);
  for (uint32_t p : spec_pred) ++first[p + 1];
  for (size_t p = 0; p < predicates.size(); ++p) first[p + 1] += first[p];
  std::vector<uint32_t> by_pred(specific.atoms.size());
  {
    std::vector<uint32_t> next(first.begin(), first.end() - 1);
    for (size_t i = 0; i < specific.atoms.size(); ++i) {
      by_pred[next[spec_pred[i]]++] = static_cast<uint32_t>(i);
    }
  }
  auto candidates = [&first](uint32_t pred) {
    return first[pred + 1] - first[pred];
  };
  for (uint32_t p : gen_pred) {
    if (candidates(p) == 0) return false;
  }

  // Term ids of `specific`'s atoms, and `general`'s arguments, flat:
  // atom i's start at spec_offset[i] and gen_offset[i].
  size_t spec_num_args = 0;
  for (const Atom& atom : specific.atoms) spec_num_args += atom.arity();
  SpecificTerms terms(specific, spec_num_args);
  std::vector<uint32_t> spec_offset(specific.atoms.size() + 1, 0);
  std::vector<uint32_t> spec_args;
  spec_args.reserve(spec_num_args);
  for (size_t i = 0; i < specific.atoms.size(); ++i) {
    for (const Term& t : specific.atoms[i].args) {
      spec_args.push_back(terms.Id(t));
    }
    spec_offset[i + 1] = static_cast<uint32_t>(spec_args.size());
  }
  auto to_arg = [&](const Term& t) {
    Arg arg;
    if (t.IsVar()) {
      arg.var = vars.Find(t.name);
    } else {
      arg.value = terms.ConstantId(t);
    }
    return arg;
  };
  const size_t m = general.atoms.size();
  std::vector<uint32_t> gen_offset(m + 1, 0);
  std::vector<Arg> gen_args;
  gen_args.reserve(gen_num_args);
  for (size_t i = 0; i < m; ++i) {
    for (const Term& t : general.atoms[i].args) gen_args.push_back(to_arg(t));
    gen_offset[i + 1] = static_cast<uint32_t>(gen_args.size());
  }

  // The head fixes the distinguished terms.
  MappingSearch search(vars.size());
  std::vector<bool> seen(vars.size(), false);
  for (size_t i = 0; i < general.head.size(); ++i) {
    Arg arg = to_arg(general.head[i]);
    if (!search.Unify(arg, terms.Id(specific.head[i]))) return false;
    if (arg.var != kNone) seen[arg.var] = true;
  }

  // Atom order: each next atom shares a variable with the head or an
  // earlier atom where one does, and has the fewest candidates among
  // those; ties keep input order.
  std::vector<uint32_t> order;
  order.reserve(m);
  std::vector<bool> placed(m, false);
  for (size_t step = 0; step < m; ++step) {
    uint32_t best = kNone;
    bool best_shares = false;
    for (uint32_t i = 0; i < m; ++i) {
      if (placed[i]) continue;
      bool shares = false;
      for (uint32_t c = gen_offset[i]; !shares && c < gen_offset[i + 1]; ++c) {
        shares = gen_args[c].var != kNone && seen[gen_args[c].var];
      }
      if (best == kNone || (shares && !best_shares) ||
          (shares == best_shares &&
           candidates(gen_pred[i]) < candidates(gen_pred[best]))) {
        best = i;
        best_shares = shares;
      }
    }
    placed[best] = true;
    order.push_back(best);
    for (uint32_t c = gen_offset[best]; c < gen_offset[best + 1]; ++c) {
      if (gen_args[c].var != kNone) seen[gen_args[c].var] = true;
    }
  }

  // Depth-first search with an explicit stack: at depth d, cursor[d] is
  // the next candidate for atom order[d], and mark[d] the trail length
  // before its current choice bound anything.
  std::vector<uint32_t> cursor(m + 1, 0);
  std::vector<size_t> mark(m + 1, search.mark());
  size_t d = 0;
  while (d < m) {
    search.Undo(mark[d]);
    const uint32_t g = order[d];
    const uint32_t pred = gen_pred[g];
    bool matched = false;
    while (!matched && cursor[d] < candidates(pred)) {
      const uint32_t* target =
          spec_args.data() + spec_offset[by_pred[first[pred] + cursor[d]++]];
      matched = true;
      for (uint32_t c = gen_offset[g]; matched && c < gen_offset[g + 1]; ++c) {
        matched = search.Unify(gen_args[c], target[c - gen_offset[g]]);
      }
      if (!matched) search.Undo(mark[d]);
    }
    if (matched) {
      ++d;
      cursor[d] = 0;
      mark[d] = search.mark();
    } else if (d == 0) {
      return false;
    } else {
      --d;
    }
  }
  return true;
}

StatusOr<bool> Equivalent(const ConjunctiveQuery& a,
                          const ConjunctiveQuery& b) {
  SEPREC_ASSIGN_OR_RETURN(bool ab, Contains(a, b));
  if (!ab) return false;
  return Contains(b, a);
}

ConjunctiveQuery FromExpansion(const ExpansionString& s, const Atom& query) {
  ConjunctiveQuery q;
  q.atoms = s.atoms;
  q.head = query.args;
  return q;
}

}  // namespace seprec
