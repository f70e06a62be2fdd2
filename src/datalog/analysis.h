// Static analysis of Datalog programs: predicate catalog, dependency
// strata, recursion/linearity classification, range-restriction (safety)
// checking, and rectification.
//
// The paper's setting (Section 2): queries on an IDB predicate `t` defined
// by linear recursive rules plus nonrecursive exit rules, where the other
// predicates do not depend on `t`. Analysis establishes exactly these facts
// for an arbitrary input program so the compiler can decide which evaluation
// algorithm applies.
#ifndef SEPREC_DATALOG_ANALYSIS_H_
#define SEPREC_DATALOG_ANALYSIS_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.h"
#include "util/status.h"

namespace seprec {

struct PredicateInfo {
  std::string name;
  size_t arity = 0;
  bool is_idb = false;      // appears in some rule head
  int scc_id = -1;          // condensation component id
  bool is_recursive = false; // in a cycle of the dependency graph
};

class ProgramInfo {
 public:
  // An empty info; assign from Analyze() before use.
  ProgramInfo() = default;

  // Analyzes `program`. Fails on arity mismatches or unsafe rules.
  static StatusOr<ProgramInfo> Analyze(const Program& program);

  const Program& program() const { return program_; }

  // All predicates mentioned anywhere, keyed by name.
  const std::map<std::string, PredicateInfo>& predicates() const {
    return predicates_;
  }

  const PredicateInfo* Find(std::string_view name) const;

  bool IsIdb(std::string_view name) const;
  bool IsRecursive(std::string_view name) const;

  // True if `a` and `b` are mutually recursive (same nontrivial SCC).
  bool MutuallyRecursive(std::string_view a, std::string_view b) const;

  // True if every rule defining `name` contains at most one body atom whose
  // predicate is in `name`'s SCC (and `name` is recursive).
  bool IsLinearRecursive(std::string_view name) const;

  // Predicates that `name` transitively depends on (not including itself
  // unless it is recursive).
  std::set<std::string> DependenciesOf(std::string_view name) const;

  // SCCs in topological (bottom-up evaluation) order: dependencies first.
  const std::vector<std::vector<std::string>>& strata() const {
    return strata_;
  }

  // Rules defining predicates of stratum `i`, in program order. Costs the
  // stratum's own rules, not the program's.
  std::vector<const Rule*> RulesOfStratum(size_t i) const;

 private:
  Program program_;
  std::map<std::string, PredicateInfo> predicates_;
  std::map<std::string, std::set<std::string>> deps_;  // head -> body preds
  std::vector<std::vector<std::string>> strata_;
  // Per stratum, the indices into program_.rules of its rules, ascending.
  // Indices rather than pointers, so a copied ProgramInfo stays valid.
  std::vector<std::vector<size_t>> stratum_rules_;
};

// Returns an error unless every rule of `program` is safe (range
// restricted): every variable of the rule can be bound by evaluating the
// body left-to-right in *some* order — i.e., each variable occurs in a
// positive relational atom, or is the output of an assignment whose inputs
// are bound, or is equated (possibly transitively) with a bound variable or
// constant.
Status CheckSafety(const Program& program);

// The variables of `rule` that are NOT range restricted (empty iff the
// rule is safe). The structured counterpart of CheckSafety, used by the
// E001 lint to name every offending variable.
std::set<std::string> UnrestrictedVars(const Rule& rule);

// SCCs of the predicate dependency graph in bottom-up (dependencies-first)
// order, computed without the safety/stratification validation that
// ProgramInfo::Analyze performs — so it works on broken programs too,
// which is what the lint passes need to spell out negation cycles.
std::vector<std::vector<std::string>> PredicateSccs(const Program& program);

// True if `rule` is linear recursive in `predicate`: exactly one body atom
// has that predicate, and the head does too.
bool IsLinearRecursiveRule(const Rule& rule, std::string_view predicate);

// True if `rule`'s body mentions `predicate` in no relational literal.
bool IsNonRecursiveRule(const Rule& rule, std::string_view predicate);

// Rectification (Section 2 / Ullman): rewrites every rule so its head is
// `p(X1, ..., Xk)` with distinct fresh variables and no constants, adding
// `=` body literals as needed. Preserves the defined relations.
Program Rectify(const Program& program);

// Returns a variable name based on `base` that does not occur in `used`,
// and inserts it into `used`.
std::string FreshVar(std::string_view base, std::set<std::string>* used);

// A linear recursion in the paper's normal form (Section 2): one recursive
// predicate `t` defined by linear recursive rules r_1..r_n plus
// nonrecursive exit rules, all rectified and renamed so every head is
// exactly t(V0, ..., Vk-1).
struct LinearRecursion {
  std::string predicate;
  size_t arity = 0;
  std::vector<std::string> head_vars;  // "V0".."V<k-1>"

  // Canonicalized rules. Each recursive rule has exactly one body atom of
  // `predicate`; exit rules have none. Variables other than head variables
  // are named "Q<rule>_<i>" so rules never share non-head variables.
  // Canonicalization preserves each rule's SourceSpan.
  std::vector<Rule> recursive_rules;
  std::vector<Rule> exit_rules;

  // Index (into each recursive rule's body) of the recursive atom.
  std::vector<size_t> recursive_atom_index;

  // Origin back-maps: recursive_rules[i] / exit_rules[i] was canonicalized
  // from program.rules[...origin[i]] of the analyzed program. Diagnostics
  // use these to point at the rule the user wrote.
  std::vector<size_t> recursive_rule_origin;
  std::vector<size_t> exit_rule_origin;

  const Atom& RecursiveBodyAtom(size_t rule_index) const {
    return recursive_rules[rule_index]
        .body[recursive_atom_index[rule_index]]
        .atom;
  }
};

// Reorders `rule`'s body into a left-to-right evaluable order given the
// initially bound variables: positive atoms keep their source order;
// builtins and negated atoms are placed as soon as their inputs are bound.
// If the rule is unsafe under these bindings the unready literals are
// appended at the end (downstream compilation reports the error).
std::vector<Literal> OrderBodySafely(
    const Rule& rule, const std::set<std::string>& initially_bound);

// True if the builtin/negated literal can run with `bound` variables;
// updates `bound` with anything it binds ('=' with one free side, 'is'
// with bound inputs). Positive atoms return false (they are not builtins).
bool BuiltinReadyAndBind(const Literal& literal,
                         std::set<std::string>* bound);

// Partitions `literals` into maximal connected sets (Definition 2.2 of the
// paper): two literals are connected iff they share a variable,
// transitively. Returns one component id per literal (ids are dense,
// starting at 0); *num_components receives the count. Ground literals form
// singleton components.
std::vector<size_t> ConnectedComponents(const std::vector<Literal>& literals,
                                        size_t* num_components);

// Extracts and canonicalizes the definition of `predicate` from `program`.
// Fails if any defining rule mentions `predicate` more than once in its
// body (non-linear), if `predicate` is mutually recursive with another
// predicate, or if a body predicate of its rules depends on `predicate`.
// Tautological rules (t :- t with no other literals) are dropped.
StatusOr<LinearRecursion> ExtractLinearRecursion(const Program& program,
                                                 std::string_view predicate);

}  // namespace seprec

#endif  // SEPREC_DATALOG_ANALYSIS_H_
