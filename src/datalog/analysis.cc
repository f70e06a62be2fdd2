#include "datalog/analysis.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// Tarjan SCC over the predicate dependency graph. Components are emitted in
// reverse topological order (callees before callers), which is exactly the
// bottom-up evaluation order we want for strata. The walk keeps its own
// stack of frames, so a program's dependency depth (a chain of 100,000
// predicates, say) costs heap, not call stack.
class SccFinder {
 public:
  explicit SccFinder(const std::map<std::string, std::set<std::string>>& deps)
      : deps_(deps) {}

  std::vector<std::vector<std::string>> Run(
      const std::vector<std::string>& nodes) {
    for (const std::string& node : nodes) {
      if (!state_.count(node)) {
        Visit(node);
      }
    }
    return components_;
  }

 private:
  struct NodeState {
    int index = -1;
    int lowlink = -1;
    bool on_stack = false;
  };

  // One node being visited: its state, and the next dependency to look at.
  struct Frame {
    const std::string* node;
    NodeState* state;
    std::set<std::string>::const_iterator next;
    std::set<std::string>::const_iterator end;
  };

  // Pushes `node`'s frame: the entry half of the recursive formulation.
  void Enter(const std::string& node, std::vector<Frame>* frames) {
    auto it = state_.try_emplace(node).first;
    NodeState& st = it->second;
    st.index = st.lowlink = next_index_++;
    st.on_stack = true;
    stack_.push_back(node);
    auto deps = deps_.find(node);
    if (deps == deps_.end()) {
      frames->push_back({&it->first, &st, no_deps_.end(), no_deps_.end()});
    } else {
      frames->push_back(
          {&it->first, &st, deps->second.begin(), deps->second.end()});
    }
  }

  void Visit(const std::string& root) {
    std::vector<Frame> frames;
    Enter(root, &frames);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next != f.end) {
        const std::string& next = *f.next++;
        auto found = state_.find(next);
        if (found == state_.end()) {
          Enter(next, &frames);  // invalidates `f`
        } else if (found->second.on_stack) {
          f.state->lowlink = std::min(f.state->lowlink, found->second.index);
        }
        continue;
      }
      // Every dependency is done: close the node, then fold its lowlink
      // into its caller's, as the return of the recursive call would.
      const Frame done = f;
      frames.pop_back();
      if (done.state->lowlink == done.state->index) {
        std::vector<std::string> component;
        while (true) {
          std::string top = stack_.back();
          stack_.pop_back();
          state_[top].on_stack = false;
          component.push_back(top);
          if (top == *done.node) break;
        }
        std::sort(component.begin(), component.end());
        components_.push_back(std::move(component));
      }
      if (!frames.empty()) {
        NodeState* caller = frames.back().state;
        caller->lowlink = std::min(caller->lowlink, done.state->lowlink);
      }
    }
  }

  const std::map<std::string, std::set<std::string>>& deps_;
  const std::set<std::string> no_deps_;
  std::map<std::string, NodeState> state_;
  std::vector<std::string> stack_;
  std::vector<std::vector<std::string>> components_;
  int next_index_ = 0;
};

}  // namespace

std::set<std::string> UnrestrictedVars(const Rule& rule) {
  std::set<std::string> bound;
  // Positive relational atoms bind all their variables; negated atoms
  // bind nothing (their variables must be bound elsewhere).
  for (const Literal& lit : rule.body) {
    if (lit.IsPositiveAtom()) {
      CollectVars(lit.atom, &bound);
    }
  }
  // Propagate through '=' and 'is' to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kCompare && lit.cmp_op == CmpOp::kEq) {
        const Term& a = lit.cmp_lhs;
        const Term& b = lit.cmp_rhs;
        bool a_bound = !a.IsVar() || bound.count(a.name) > 0;
        bool b_bound = !b.IsVar() || bound.count(b.name) > 0;
        if (a_bound && b.IsVar() && !b_bound) {
          bound.insert(b.name);
          changed = true;
        }
        if (b_bound && a.IsVar() && !a_bound) {
          bound.insert(a.name);
          changed = true;
        }
      } else if (lit.kind == Literal::Kind::kAssign) {
        std::set<std::string> inputs;
        CollectVars(lit.expr, &inputs);
        bool all_bound = true;
        for (const std::string& v : inputs) {
          if (!bound.count(v)) {
            all_bound = false;
            break;
          }
        }
        if (all_bound && !bound.count(lit.assign_var)) {
          bound.insert(lit.assign_var);
          changed = true;
        }
      }
    }
  }
  std::set<std::string> needed;
  CollectVars(rule, &needed);
  std::set<std::string> unrestricted;
  for (const std::string& v : needed) {
    if (!bound.count(v)) unrestricted.insert(v);
  }
  return unrestricted;
}

namespace {

// Safety check for a single rule; see CheckSafety.
Status CheckRuleSafety(const Rule& rule) {
  std::set<std::string> unrestricted = UnrestrictedVars(rule);
  if (!unrestricted.empty()) {
    return InvalidArgumentError(
        StrCat("unsafe rule, variable '", *unrestricted.begin(),
               "' is not range restricted: ", rule.ToString()));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ProgramInfo> ProgramInfo::Analyze(const Program& program) {
  ProgramInfo info;
  info.program_ = program;

  // Catalog predicates and check arity consistency.
  auto note_atom = [&info](const Atom& atom, bool is_head) -> Status {
    auto [it, inserted] =
        info.predicates_.try_emplace(atom.predicate, PredicateInfo{});
    PredicateInfo& pred = it->second;
    if (inserted) {
      pred.name = atom.predicate;
      pred.arity = atom.arity();
    } else if (pred.arity != atom.arity()) {
      return InvalidArgumentError(
          StrCat("predicate '", atom.predicate, "' used with arities ",
                 pred.arity, " and ", atom.arity()));
    }
    if (is_head) pred.is_idb = true;
    return Status::OK();
  };

  for (const Rule& rule : program.rules) {
    SEPREC_RETURN_IF_ERROR(note_atom(rule.head, /*is_head=*/true));
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAtom) {
        SEPREC_RETURN_IF_ERROR(note_atom(lit.atom, /*is_head=*/false));
      }
    }
    info.deps_[rule.head.predicate];  // ensure node exists
    for (const Atom* atom : rule.BodyAtoms()) {
      info.deps_[rule.head.predicate].insert(atom->predicate);
    }
  }

  SEPREC_RETURN_IF_ERROR(CheckSafety(program));

  // SCC condensation; components come out dependencies-first.
  std::vector<std::string> nodes;
  for (const auto& [name, pred] : info.predicates_) {
    nodes.push_back(name);
  }
  SccFinder finder(info.deps_);
  info.strata_ = finder.Run(nodes);

  for (size_t i = 0; i < info.strata_.size(); ++i) {
    for (const std::string& name : info.strata_[i]) {
      auto it = info.predicates_.find(name);
      if (it == info.predicates_.end()) continue;  // defensive
      it->second.scc_id = static_cast<int>(i);
      // Recursive iff its SCC is nontrivial or it depends on itself.
      bool self_loop = false;
      auto dep_it = info.deps_.find(name);
      if (dep_it != info.deps_.end()) {
        self_loop = dep_it->second.count(name) > 0;
      }
      it->second.is_recursive = info.strata_[i].size() > 1 || self_loop;
    }
  }
  info.stratum_rules_.resize(info.strata_.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const std::string& head = program.rules[r].head.predicate;
    info.stratum_rules_[info.predicates_.at(head).scc_id].push_back(r);
  }

  // Stratified negation: no rule may negate a predicate from its head's
  // own SCC (negation through recursion has no least fixpoint). The same
  // restriction applies to aggregate rules: their whole body must lie in
  // strictly lower strata so the aggregated set is complete.
  for (const Rule& rule : program.rules) {
    const PredicateInfo* head = info.Find(rule.head.predicate);
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAtom) continue;
      if (!lit.negated && !rule.aggregate.has_value()) continue;
      const PredicateInfo* body_pred = info.Find(lit.atom.predicate);
      if (body_pred != nullptr && head != nullptr &&
          body_pred->scc_id == head->scc_id &&
          (head->is_recursive || rule.head.predicate == lit.atom.predicate)) {
        return InvalidArgumentError(StrCat(
            "program is not stratified: '", rule.head.predicate, "' ",
            lit.negated ? "negates" : "aggregates over", " '",
            lit.atom.predicate, "' inside its own recursive component: ",
            rule.ToString()));
      }
    }
    if (rule.aggregate.has_value() &&
        rule.aggregate->head_position >= rule.head.args.size()) {
      return InvalidArgumentError(
          StrCat("aggregate position out of range: ", rule.ToString()));
    }
  }

  return info;
}

const PredicateInfo* ProgramInfo::Find(std::string_view name) const {
  auto it = predicates_.find(std::string(name));
  return it == predicates_.end() ? nullptr : &it->second;
}

bool ProgramInfo::IsIdb(std::string_view name) const {
  const PredicateInfo* pred = Find(name);
  return pred != nullptr && pred->is_idb;
}

bool ProgramInfo::IsRecursive(std::string_view name) const {
  const PredicateInfo* pred = Find(name);
  return pred != nullptr && pred->is_recursive;
}

bool ProgramInfo::MutuallyRecursive(std::string_view a,
                                    std::string_view b) const {
  const PredicateInfo* pa = Find(a);
  const PredicateInfo* pb = Find(b);
  if (pa == nullptr || pb == nullptr) return false;
  if (a == b) return pa->is_recursive;
  return pa->scc_id == pb->scc_id;
}

bool ProgramInfo::IsLinearRecursive(std::string_view name) const {
  const PredicateInfo* pred = Find(name);
  if (pred == nullptr || !pred->is_recursive) return false;
  for (const Rule& rule : program_.rules) {
    if (rule.head.predicate != name) continue;
    int in_scc = 0;
    for (const Atom* atom : rule.BodyAtoms()) {
      const PredicateInfo* body_pred = Find(atom->predicate);
      if (body_pred != nullptr && body_pred->scc_id == pred->scc_id &&
          body_pred->is_recursive) {
        ++in_scc;
      }
    }
    if (in_scc > 1) return false;
  }
  return true;
}

std::set<std::string> ProgramInfo::DependenciesOf(
    std::string_view name) const {
  std::set<std::string> reached;
  std::vector<std::string> work;
  auto push_deps = [this, &reached, &work](const std::string& node) {
    auto it = deps_.find(node);
    if (it == deps_.end()) return;
    for (const std::string& next : it->second) {
      if (reached.insert(next).second) {
        work.push_back(next);
      }
    }
  };
  push_deps(std::string(name));
  while (!work.empty()) {
    std::string node = work.back();
    work.pop_back();
    push_deps(node);
  }
  return reached;
}

std::vector<const Rule*> ProgramInfo::RulesOfStratum(size_t i) const {
  SEPREC_CHECK(i < stratum_rules_.size());
  std::vector<const Rule*> rules;
  rules.reserve(stratum_rules_[i].size());
  for (size_t r : stratum_rules_[i]) rules.push_back(&program_.rules[r]);
  return rules;
}

Status CheckSafety(const Program& program) {
  for (const Rule& rule : program.rules) {
    SEPREC_RETURN_IF_ERROR(CheckRuleSafety(rule));
  }
  return Status::OK();
}

std::vector<std::vector<std::string>> PredicateSccs(const Program& program) {
  std::map<std::string, std::set<std::string>> deps;
  std::set<std::string> seen;
  for (const Rule& rule : program.rules) {
    deps[rule.head.predicate];
    seen.insert(rule.head.predicate);
    for (const Atom* atom : rule.BodyAtoms()) {
      deps[rule.head.predicate].insert(atom->predicate);
      seen.insert(atom->predicate);
    }
  }
  SccFinder finder(deps);
  return finder.Run(std::vector<std::string>(seen.begin(), seen.end()));
}

bool IsLinearRecursiveRule(const Rule& rule, std::string_view predicate) {
  if (rule.head.predicate != predicate) return false;
  return rule.BodyAtomsOf(predicate).size() == 1;
}

bool IsNonRecursiveRule(const Rule& rule, std::string_view predicate) {
  return rule.BodyAtomsOf(predicate).empty();
}

std::string FreshVar(std::string_view base, std::set<std::string>* used) {
  std::string candidate(base);
  int suffix = 0;
  while (used->count(candidate)) {
    candidate = StrCat(base, "_", suffix++);
  }
  used->insert(candidate);
  return candidate;
}

bool BuiltinReadyAndBind(const Literal& literal,
                         std::set<std::string>* bound) {
  auto term_bound = [bound](const Term& t) {
    return !t.IsVar() || bound->count(t.name) > 0;
  };
  if (literal.kind == Literal::Kind::kAtom) {
    if (!literal.negated) return false;
    for (const Term& arg : literal.atom.args) {
      if (!term_bound(arg)) return false;
    }
    return true;  // negated atoms bind nothing
  }
  if (literal.kind == Literal::Kind::kCompare) {
    bool lb = term_bound(literal.cmp_lhs);
    bool rb = term_bound(literal.cmp_rhs);
    if (lb && rb) return true;
    if (literal.cmp_op == CmpOp::kEq && (lb || rb)) {
      const Term& free_side = lb ? literal.cmp_rhs : literal.cmp_lhs;
      bound->insert(free_side.name);
      return true;
    }
    return false;
  }
  if (literal.kind == Literal::Kind::kAssign) {
    std::set<std::string> inputs;
    CollectVars(literal.expr, &inputs);
    for (const std::string& v : inputs) {
      if (!bound->count(v)) return false;
    }
    bound->insert(literal.assign_var);
    return true;
  }
  return false;
}

std::vector<Literal> OrderBodySafely(
    const Rule& rule, const std::set<std::string>& initially_bound) {
  std::vector<Literal> ordered;
  std::vector<bool> used(rule.body.size(), false);
  std::set<std::string> bound = initially_bound;
  size_t remaining = rule.body.size();
  while (remaining > 0) {
    bool progressed = false;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (used[i] || rule.body[i].IsPositiveAtom()) continue;
      if (BuiltinReadyAndBind(rule.body[i], &bound)) {
        ordered.push_back(rule.body[i]);
        used[i] = true;
        --remaining;
        progressed = true;
      }
    }
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (used[i] || !rule.body[i].IsPositiveAtom()) continue;
      ordered.push_back(rule.body[i]);
      CollectVars(rule.body[i].atom, &bound);
      used[i] = true;
      --remaining;
      progressed = true;
      break;
    }
    if (!progressed) {
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (!used[i]) {
          ordered.push_back(rule.body[i]);
          used[i] = true;
          --remaining;
        }
      }
    }
  }
  return ordered;
}

std::vector<size_t> ConnectedComponents(const std::vector<Literal>& literals,
                                        size_t* num_components) {
  // Union-find over literal indices, merging via shared variables.
  std::vector<size_t> parent(literals.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&parent, &find](size_t x) {
    return parent[x] == x ? x : (parent[x] = find(parent[x]));
  };
  std::map<std::string, size_t> first_literal_with_var;
  for (size_t i = 0; i < literals.size(); ++i) {
    std::set<std::string> vars;
    CollectVars(literals[i], &vars);
    for (const std::string& v : vars) {
      auto [it, inserted] = first_literal_with_var.emplace(v, i);
      if (!inserted) {
        parent[find(i)] = find(it->second);
      }
    }
  }
  std::map<size_t, size_t> dense_ids;
  std::vector<size_t> out(literals.size());
  for (size_t i = 0; i < literals.size(); ++i) {
    size_t root = find(i);
    auto [it, inserted] = dense_ids.emplace(root, dense_ids.size());
    out[i] = it->second;
  }
  *num_components = dense_ids.size();
  return out;
}

StatusOr<LinearRecursion> ExtractLinearRecursion(const Program& program,
                                                 std::string_view predicate) {
  SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));
  const PredicateInfo* pred = info.Find(predicate);
  if (pred == nullptr || !pred->is_idb) {
    return InvalidArgumentError(
        StrCat("'", predicate, "' is not an IDB predicate"));
  }
  // No mutual recursion with another predicate.
  for (const auto& [other, other_info] : info.predicates()) {
    if (other != predicate && other_info.scc_id == pred->scc_id &&
        pred->is_recursive) {
      return FailedPreconditionError(
          StrCat("'", predicate, "' is mutually recursive with '", other,
                 "'"));
    }
  }
  // Body predicates of t's rules must not depend on t.
  for (const Rule& rule : program.rules) {
    if (rule.head.predicate != predicate) continue;
    for (const Atom* atom : rule.BodyAtoms()) {
      if (atom->predicate == predicate) continue;
      std::set<std::string> deps = info.DependenciesOf(atom->predicate);
      if (deps.count(std::string(predicate))) {
        return FailedPreconditionError(
            StrCat("body predicate '", atom->predicate, "' depends on '",
                   predicate, "'"));
      }
    }
  }

  LinearRecursion rec;
  rec.predicate = std::string(predicate);
  rec.arity = pred->arity;
  for (size_t i = 0; i < rec.arity; ++i) {
    rec.head_vars.push_back(StrCat("V", i));
  }

  // Rectify preserves rule order 1:1, so index r in `rectified` is the
  // origin index into the caller's program.rules.
  Program rectified = Rectify(program);
  size_t rule_counter = 0;
  for (size_t origin = 0; origin < rectified.rules.size(); ++origin) {
    const Rule& rule = rectified.rules[origin];
    if (rule.head.predicate != predicate) continue;
    if (rule.aggregate.has_value()) {
      return FailedPreconditionError(
          StrCat("'", predicate, "' has an aggregate rule: ",
                 rule.ToString()));
    }
    size_t occurrences = rule.BodyAtomsOf(predicate).size();
    if (occurrences > 1) {
      return FailedPreconditionError(
          StrCat("non-linear rule for '", predicate, "': ", rule.ToString()));
    }

    // Canonical renaming: head variables -> V0..Vk-1, everything else ->
    // Q<rule>_<i>. The target names are all distinct and drawn from a
    // reserved namespace, so the simultaneous substitution cannot capture.
    Substitution sub;
    std::set<std::string> head_var_names;
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      // After Rectify every head argument is a distinct variable.
      SEPREC_CHECK(rule.head.args[i].IsVar());
      sub[rule.head.args[i].name] = Term::Var(rec.head_vars[i]);
      head_var_names.insert(rule.head.args[i].name);
    }
    std::set<std::string> all_vars;
    CollectVars(rule, &all_vars);
    size_t next_q = 0;
    for (const std::string& v : all_vars) {
      if (head_var_names.count(v)) continue;
      sub[v] = Term::Var(StrCat("Q", rule_counter, "_", next_q++));
    }
    Rule canonical = Substitute(rule, sub);

    if (occurrences == 0) {
      rec.exit_rules.push_back(std::move(canonical));
      rec.exit_rule_origin.push_back(origin);
    } else {
      // Find the recursive atom's body index.
      size_t index = canonical.body.size();
      for (size_t i = 0; i < canonical.body.size(); ++i) {
        const Literal& lit = canonical.body[i];
        if (lit.kind == Literal::Kind::kAtom &&
            lit.atom.predicate == predicate) {
          index = i;
          break;
        }
      }
      SEPREC_CHECK(index < canonical.body.size());
      // Drop tautological rules: t(V...) :- t(V...) alone derives nothing.
      if (canonical.body.size() == 1 &&
          canonical.body[0].atom.args == canonical.head.args) {
        ++rule_counter;
        continue;
      }
      rec.recursive_rules.push_back(std::move(canonical));
      rec.recursive_atom_index.push_back(index);
      rec.recursive_rule_origin.push_back(origin);
    }
    ++rule_counter;
  }
  return rec;
}

Program Rectify(const Program& program) {
  Program out;
  out.rules.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    Rule fixed = rule;
    std::set<std::string> used;
    CollectVars(rule, &used);
    std::set<std::string> seen_in_head;
    for (size_t i = 0; i < fixed.head.args.size(); ++i) {
      Term& arg = fixed.head.args[i];
      if (arg.IsVar() && seen_in_head.insert(arg.name).second) {
        continue;  // first occurrence of a variable: fine
      }
      // Constant or repeated variable: replace with a fresh variable and
      // equate it in the body.
      std::string fresh = FreshVar(StrCat("R", i), &used);
      Term original = arg;
      arg = Term::Var(fresh);
      Literal eq = Literal::MakeCompare(CmpOp::kEq, Term::Var(fresh),
                                        original);
      eq.span = fixed.head.span;  // synthesized: point at the head
      fixed.body.push_back(std::move(eq));
      seen_in_head.insert(fresh);
      // Keep the aggregate invariant: args[head_position] names over_var.
      if (fixed.aggregate.has_value() &&
          fixed.aggregate->head_position == i) {
        fixed.aggregate->over_var = fresh;
      }
    }
    out.rules.push_back(std::move(fixed));
  }
  return out;
}

}  // namespace seprec
