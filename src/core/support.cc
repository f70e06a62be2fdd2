#include "core/support.h"

#include <set>
#include <string>

#include "datalog/analysis.h"
#include "util/string_util.h"

namespace seprec {

namespace {

Program RulesFor(const Program& program,
                 const std::set<std::string>& predicates) {
  Program support;
  for (const Rule& rule : program.rules) {
    if (predicates.count(rule.head.predicate)) {
      support.rules.push_back(rule);
    }
  }
  return support;
}

}  // namespace

Status EvaluateSupport(const Program& support, Database* db,
                       const FixpointOptions& options, EvalStats* stats) {
  if (support.rules.empty()) return Status::OK();

  // Support rounds carry a distinct phase prefix so a trace separates them
  // from the main fixpoint of the engine that requested them.
  FixpointOptions support_options = options;
  support_options.trace_phase_prefix =
      StrCat(options.trace_phase_prefix, "support/");

  EvalStats support_stats;
  Status status =
      EvaluateSemiNaive(support, db, support_options, &support_stats);
  if (stats != nullptr) {
    stats->iterations += support_stats.iterations;
    stats->tuples_inserted += support_stats.tuples_inserted;
    for (const auto& [name, size] : support_stats.relation_sizes) {
      stats->NoteRelation(name, size);
    }
  }
  return status;
}

StatusOr<Program> SupportProgram(const Program& program,
                                 std::string_view predicate) {
  SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));
  std::set<std::string> deps = info.DependenciesOf(predicate);
  deps.erase(std::string(predicate));
  return RulesFor(program, deps);
}

Status MaterializeSupport(const Program& program, std::string_view predicate,
                          Database* db, const FixpointOptions& options,
                          EvalStats* stats) {
  SEPREC_ASSIGN_OR_RETURN(Program support, SupportProgram(program, predicate));
  return EvaluateSupport(support, db, options, stats);
}

Status MaterializePredicates(const Program& program,
                             const std::set<std::string>& predicates,
                             Database* db, const FixpointOptions& options,
                             EvalStats* stats) {
  SEPREC_ASSIGN_OR_RETURN(ProgramInfo info, ProgramInfo::Analyze(program));
  std::set<std::string> wanted = predicates;
  for (const std::string& pred : predicates) {
    std::set<std::string> deps = info.DependenciesOf(pred);
    wanted.insert(deps.begin(), deps.end());
  }
  return EvaluateSupport(RulesFor(program, wanted), db, options, stats);
}

std::set<std::string> AggregatePredicates(const Program& program) {
  std::set<std::string> out;
  for (const Rule& rule : program.rules) {
    if (rule.aggregate.has_value()) out.insert(rule.head.predicate);
  }
  return out;
}

std::set<std::string> NegatedIdbPredicates(const Program& program) {
  std::set<std::string> heads;
  for (const Rule& rule : program.rules) {
    heads.insert(rule.head.predicate);
  }
  std::set<std::string> negated;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kAtom && lit.negated &&
          heads.count(lit.atom.predicate)) {
        negated.insert(lit.atom.predicate);
      }
    }
  }
  return negated;
}

}  // namespace seprec
