#include "opt/bounded.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/containment.h"
#include "datalog/expand.h"
#include "util/string_util.h"

namespace seprec {

namespace {

// Enumeration guards: boundedness is only worth proving for small rule
// sets (the expansion grows as (#recursive rules)^depth), and abstaining
// is always sound.
constexpr size_t kMaxStrings = 512;
constexpr size_t kMaxAtomsPerString = 64;

// The outcome of TryEliminate for one predicate.
struct Elimination {
  bool rewritten = false;
  std::string note;  // why the predicate was skipped (when !rewritten)
  size_t bound = 0;
  size_t rules_before = 0;
  size_t rules_after = 0;
};

class BoundedPass : public Pass {
 public:
  std::string_view name() const override { return "bounded"; }

  PassOutcome Run(PassContext* ctx, DiagnosticSink* sink) const override {
    PassOutcome outcome;
    outcome.pass = std::string(name());

    StatusOr<ProgramInfo> info = ProgramInfo::Analyze(ctx->program);
    if (!info.ok()) {
      outcome.verdict = PassVerdict::kAbstained;
      outcome.detail =
          StrCat("program analysis failed: ", info.status().message());
      return outcome;
    }

    // Every recursive predicate the query reads (itself included) is a
    // candidate; eliminating a subsidiary bounded recursion still saves
    // fixpoint rounds even when the query predicate stays recursive.
    std::set<std::string> wanted = info->DependenciesOf(ctx->query.predicate);
    wanted.insert(ctx->query.predicate);
    std::vector<std::string> candidates;
    for (const std::string& pred : wanted) {
      if (info->IsRecursive(pred)) candidates.push_back(pred);
    }
    if (candidates.empty()) {
      outcome.verdict = PassVerdict::kAbstained;
      outcome.detail = StrCat("no recursive predicate reachable from '",
                              ctx->query.predicate, "'");
      return outcome;
    }

    const bool query_was_recursive =
        info->IsRecursive(ctx->query.predicate);
    size_t rewrites = 0;
    std::vector<std::string> skipped;
    for (const std::string& pred : candidates) {
      Elimination e = TryEliminate(pred, &ctx->program, ctx->max_bound);
      if (e.rewritten) {
        ++rewrites;
        const Rule* first = ctx->program.RulesFor(pred).front();
        sink->Report(
            "S201", Severity::kNote, first->span,
            StrCat("bounded recursion: '", pred, "' reaches its fixpoint ",
                   "after ", e.bound + 1, " round(s) on every database; ",
                   e.rules_before, " rule(s) rewritten to a non-recursive ",
                   "union of ", e.rules_after,
                   " conjunctive quer(ies), verified by containment"));
      } else {
        skipped.push_back(StrCat("'", pred, "': ", e.note));
      }
    }

    if (rewrites == 0) {
      outcome.verdict = PassVerdict::kAbstained;
      outcome.detail = StrJoin(skipped, "; ");
      sink->Report("S202", Severity::kNote, ctx->query.span,
                   StrCat("boundedness not established (checked depth <= ",
                          ctx->max_bound, "): ", outcome.detail));
      return outcome;
    }

    // The query predicate is de-recursed only when nothing it still reads
    // is recursive — that is what licenses the single-round
    // Strategy::kNonRecursive plan downstream.
    StatusOr<ProgramInfo> after = ProgramInfo::Analyze(ctx->program);
    if (after.ok() && query_was_recursive) {
      std::set<std::string> still =
          after->DependenciesOf(ctx->query.predicate);
      still.insert(ctx->query.predicate);
      bool any_recursive = false;
      for (const std::string& pred : still) {
        if (after->IsRecursive(pred)) any_recursive = true;
      }
      ctx->derecursed = !any_recursive;
    }

    outcome.verdict = PassVerdict::kRewritten;
    outcome.detail = StrCat("eliminated ", rewrites,
                            " bounded recursion(s)",
                            ctx->derecursed ? "; query is now non-recursive"
                                            : "");
    if (!skipped.empty()) {
      outcome.detail += StrCat("; kept ", StrJoin(skipped, "; "));
    }
    return outcome;
  }

 private:
  // Attempts to prove `pred` bounded in *program and to replace its rules
  // by the non-recursive union. On success mutates *program.
  static Elimination TryEliminate(const std::string& pred, Program* program,
                                  size_t max_bound) {
    Elimination result;

    // Only pure positive-relational definitions expand into conjunctive
    // queries the containment test understands.
    for (const Rule* rule : program->RulesFor(pred)) {
      if (rule->aggregate.has_value()) {
        result.note = "aggregate rule";
        return result;
      }
      for (const Literal& lit : rule->body) {
        if (!lit.IsPositiveAtom()) {
          result.note = "body has negation or builtins";
          return result;
        }
      }
    }

    StatusOr<LinearRecursion> rec = ExtractLinearRecursion(*program, pred);
    if (!rec.ok()) {
      result.note = std::string(rec.status().message());
      return result;
    }
    if (rec->recursive_rules.empty() || rec->exit_rules.empty()) {
      result.note = "no recursive/exit rule pair after canonicalization";
      return result;
    }

    // Canonicalization (rectification) may have introduced `=` literals
    // for repeated head variables or head constants; Expand would reject
    // them, so bail out up front.
    Program canon;
    for (const Rule& rule : rec->recursive_rules) canon.rules.push_back(rule);
    for (const Rule& rule : rec->exit_rules) canon.rules.push_back(rule);
    for (const Rule& rule : canon.rules) {
      for (const Literal& lit : rule.body) {
        if (!lit.IsPositiveAtom()) {
          result.note = "rectified form needs equality literals";
          return result;
        }
      }
    }

    Atom head;
    head.predicate = rec->predicate;
    for (const std::string& var : rec->head_vars) {
      head.args.push_back(Term::Var(var));
    }

    StatusOr<std::vector<ExpansionString>> strings =
        Expand(canon, head, max_bound + 1);
    if (!strings.ok()) {
      result.note = std::string(strings.status().message());
      return result;
    }
    if (strings->size() > kMaxStrings) {
      result.note = StrCat("expansion too large (", strings->size(),
                           " strings)");
      return result;
    }
    for (const ExpansionString& s : *strings) {
      if (s.atoms.size() > kMaxAtomsPerString) {
        result.note = "expansion string too long";
        return result;
      }
    }

    // Strings grouped by recursion depth (number of rule applications).
    std::map<size_t, std::vector<const ExpansionString*>> by_depth;
    for (const ExpansionString& s : *strings) {
      by_depth[s.derivation.size()].push_back(&s);
    }

    // Smallest k whose depth-(k+1) strings are all covered by some string
    // of depth <= k. Coverage at k+1 extends to every deeper string
    // because containment is preserved under further rule application.
    bool bounded = false;
    size_t bound = 0;
    std::vector<ConjunctiveQuery> shallow;
    for (size_t k = 0; k <= max_bound && !bounded; ++k) {
      for (const ExpansionString* s : by_depth[k]) {
        shallow.push_back(FromExpansion(*s, head));
      }
      bool all_covered = true;
      for (const ExpansionString* deep : by_depth[k + 1]) {
        ConjunctiveQuery specific = FromExpansion(*deep, head);
        bool covered = false;
        for (const ConjunctiveQuery& general : shallow) {
          StatusOr<bool> contains = Contains(general, specific);
          if (contains.ok() && contains.value()) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          all_covered = false;
          break;
        }
      }
      if (all_covered) {
        bounded = true;
        bound = k;
      }
    }
    if (!bounded) {
      result.note = StrCat("not bounded up to depth ", max_bound);
      return result;
    }

    // t is equivalent to the union of its depth <= k strings: each becomes
    // one non-recursive rule. The rules are safe (every head variable is
    // bound by the string's atoms, inherited from the safe originals) and
    // mention `pred` nowhere, so the predicate leaves its recursive SCC.
    const SourceSpan span = program->RulesFor(pred).front()->span;
    std::vector<Rule> replacement;
    for (const ConjunctiveQuery& s : shallow) {
      Rule rule;
      rule.head = head;
      rule.head.span = span;
      rule.span = span;
      for (const Atom& atom : s.atoms) {
        rule.body.push_back(Literal::MakeAtom(atom));
      }
      if (!UnrestrictedVars(rule).empty()) {
        result.note = "rewritten rule would be unsafe";
        return result;
      }
      replacement.push_back(std::move(rule));
    }

    Program rewritten;
    bool inserted = false;
    size_t before = 0;
    for (Rule& rule : program->rules) {
      if (rule.head.predicate != pred) {
        rewritten.rules.push_back(std::move(rule));
        continue;
      }
      ++before;
      if (!inserted) {
        for (Rule& r : replacement) rewritten.rules.push_back(std::move(r));
        inserted = true;
      }
    }
    result.rewritten = true;
    result.bound = bound;
    result.rules_before = before;
    result.rules_after = shallow.size();
    *program = std::move(rewritten);
    return result;
  }
};

}  // namespace

std::unique_ptr<Pass> MakeBoundedPass() {
  return std::make_unique<BoundedPass>();
}

}  // namespace seprec
