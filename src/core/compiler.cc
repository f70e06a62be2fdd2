#include "core/compiler.h"

#include "core/query.h"
#include "counting/engine.h"
#include "eval/qsq.h"
#include "magic/engine.h"
#include "opt/nonrecursive.h"
#include "opt/pass_manager.h"
#include "plan/planner.h"
#include "separable/engine.h"
#include "separable/rewrite.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace seprec {

std::string_view StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto: return "auto";
    case Strategy::kSeparable: return "separable";
    case Strategy::kMagic: return "magic";
    case Strategy::kCounting: return "counting";
    case Strategy::kQsqr: return "qsqr";
    case Strategy::kNonRecursive: return "nonrecursive";
    case Strategy::kSemiNaive: return "seminaive";
    case Strategy::kNaive: return "naive";
  }
  return "?";
}

StatusOr<Strategy> ParseStrategy(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(Strategy::kNaive); ++i) {
    const Strategy strategy = static_cast<Strategy>(i);
    if (StrategyToString(strategy) == name) return strategy;
  }
  return InvalidArgumentError(StrCat("unknown strategy '", name, "'"));
}

StatusOr<QueryProcessor> QueryProcessor::Create(
    Program program, const ProcessorOptions& options) {
  QueryProcessor qp;
  qp.options_ = options;
  SEPREC_ASSIGN_OR_RETURN(qp.info_, ProgramInfo::Analyze(program));
  for (const auto& [name, pred] : qp.info_.predicates()) {
    if (!pred.is_idb || !pred.is_recursive) continue;
    DiagnosticSink sink;
    StatusOr<SeparableRecursion> sep = AnalyzeSeparable(
        qp.info_.program(), name, options.separability, &sink);
    if (sep.ok()) {
      qp.separable_.emplace(name, std::move(sep).value());
    } else {
      qp.not_separable_reason_.emplace(name, sep.status().message());
      qp.separability_diagnostics_.emplace(name, sink.diagnostics());
    }
  }
  return qp;
}

const SeparableRecursion* QueryProcessor::FindSeparable(
    std::string_view predicate) const {
  auto it = separable_.find(std::string(predicate));
  return it == separable_.end() ? nullptr : &it->second;
}

std::string QueryProcessor::SeparabilityFailure(
    std::string_view predicate) const {
  auto it = not_separable_reason_.find(std::string(predicate));
  return it == not_separable_reason_.end() ? "" : it->second;
}

const std::vector<Diagnostic>* QueryProcessor::SeparabilityDiagnostics(
    std::string_view predicate) const {
  auto it = separability_diagnostics_.find(std::string(predicate));
  return it == separability_diagnostics_.end() ? nullptr : &it->second;
}

QueryProcessor::Decision QueryProcessor::Decide(const Atom& query) const {
  Decision decision;
  const PredicateInfo* pred = info_.Find(query.predicate);
  if (pred == nullptr || !pred->is_idb) {
    decision.strategy = Strategy::kSemiNaive;
    decision.reason = "base (EDB) predicate: direct selection";
    return decision;
  }
  if (!pred->is_recursive) {
    decision.strategy = Strategy::kSemiNaive;
    decision.reason = "non-recursive IDB predicate";
    return decision;
  }
  if (NumBoundPositions(query) == 0) {
    decision.strategy = Strategy::kSemiNaive;
    decision.reason = "no selection constants to exploit";
    return decision;
  }
  for (const Rule* rule : info_.program().RulesFor(query.predicate)) {
    if (rule->aggregate.has_value()) {
      decision.strategy = Strategy::kSemiNaive;
      decision.reason = "aggregate-defined predicate";
      return decision;
    }
  }
  const SeparableRecursion* sep = FindSeparable(query.predicate);
  if (sep != nullptr) {
    decision.strategy = Strategy::kSeparable;
    SelectionKind kind = ClassifySelection(*sep, query);
    decision.reason =
        kind == SelectionKind::kFull
            ? "separable recursion, full selection"
            : "separable recursion, partial selection (Lemma 2.1 rewrite)";
    return decision;
  }
  decision.strategy = Strategy::kMagic;
  decision.reason =
      StrCat("not separable (", SeparabilityFailure(query.predicate),
             "); falling back to Generalized Magic Sets");
  return decision;
}

StatusOr<std::string> QueryProcessor::Explain(const Atom& query) const {
  Decision decision = Decide(query);
  std::string out =
      StrCat("query    : ", query.ToString(), "\n",
             "strategy : ", StrategyToString(decision.strategy), "\n",
             "reason   : ", decision.reason, "\n");
  // When the Separable strategy was considered and rejected, spell out
  // every Definition 2.4 violation the detector recorded.
  const std::vector<Diagnostic>* rejected =
      SeparabilityDiagnostics(query.predicate);
  if (decision.strategy != Strategy::kSeparable && rejected != nullptr) {
    out += StrCat("rejected : separable — ", rejected->size(),
                  " detection diagnostic(s):\n");
    for (const Diagnostic& d : *rejected) {
      out += StrCat("  ", d.ToText(), "\n");
    }
  }
  out += "\n";
  switch (decision.strategy) {
    case Strategy::kSeparable: {
      const SeparableRecursion* sep = FindSeparable(query.predicate);
      SEPREC_CHECK(sep != nullptr);
      out += DescribeSeparable(*sep);
      if (ClassifySelection(*sep, query) == SelectionKind::kFull) {
        SEPREC_ASSIGN_OR_RETURN(std::string schema,
                                ExplainSchema(*sep, query));
        out += StrCat("\ninstantiated schema (Figure 2):\n", schema);
      } else {
        out +=
            "\npartial selection: evaluated as a union of full selections. "
            "The Lemma 2.1 rewrite:\n";
        SEPREC_ASSIGN_OR_RETURN(
            PartialRewrite rewrite,
            RewritePartialSelection(info_.program(), *sep, query));
        out += rewrite.program.ToString();
      }
      return out;
    }
    case Strategy::kMagic: {
      SEPREC_ASSIGN_OR_RETURN(MagicRewrite rewrite,
                              MagicTransform(info_.program(), query));
      out += StrCat("rewritten program (Generalized Magic Sets):\n",
                    rewrite.program.ToString());
      return out;
    }
    case Strategy::kCounting: {
      SEPREC_ASSIGN_OR_RETURN(CountingRewrite rewrite,
                              CountingTransform(info_.program(), query));
      out += StrCat("rewritten program (Generalized Counting):\n",
                    rewrite.program.ToString());
      return out;
    }
    default: {
      const PredicateInfo* pred = info_.Find(query.predicate);
      if (pred == nullptr || !pred->is_idb) {
        out += "direct selection on a base relation.\n";
        return out;
      }
      std::set<std::string> wanted = info_.DependenciesOf(query.predicate);
      wanted.insert(query.predicate);
      out += "rules evaluated bottom-up (semi-naive):\n";
      for (const Rule& rule : info_.program().rules) {
        if (wanted.count(rule.head.predicate)) {
          out += StrCat("  ", rule.ToString(), "\n");
        }
      }
      return out;
    }
  }
}

namespace {

// The kAuto degradation ladder: when a strategy fails for a non-budget
// reason, the next entry answers the same query with a more general (if
// less focused) algorithm — mirroring the paper's stance that Separable
// supplements Magic Sets, which in turn supplements plain semi-naive.
std::vector<Strategy> FallbackChain(Strategy first) {
  switch (first) {
    case Strategy::kSeparable:
      return {Strategy::kSeparable, Strategy::kMagic, Strategy::kSemiNaive};
    case Strategy::kMagic:
      return {Strategy::kMagic, Strategy::kSemiNaive};
    case Strategy::kNonRecursive:
      // The single-pass plan refuses recursion/aggregates it was not
      // promised; semi-naive answers anything.
      return {Strategy::kNonRecursive, Strategy::kSemiNaive};
    default:
      return {first};
  }
}

}  // namespace

Status QueryProcessor::RunStrategy(Strategy strategy, const Atom& query,
                                   Database* db,
                                   const FixpointOptions& options,
                                   QueryResult* result,
                                   PreparedSeparable* schema,
                                   const Phase1Closure* reuse,
                                   Phase1Closure* capture) const {
  switch (strategy) {
    case Strategy::kSeparable: {
      SEPREC_RETURN_IF_ERROR(Failpoints::Check("compiler.separable"));
      const SeparableRecursion* sep = FindSeparable(query.predicate);
      if (sep == nullptr) {
        return FailedPreconditionError(
            StrCat("'", query.predicate, "' is not a separable recursion: ",
                   SeparabilityFailure(query.predicate)));
      }
      SeparableRunResult run;
      if (schema != nullptr && schema->Matches(query)) {
        SEPREC_ASSIGN_OR_RETURN(run,
                                schema->Execute(query, options, reuse, capture));
      } else {
        SEPREC_ASSIGN_OR_RETURN(
            run,
            EvaluateWithSeparable(info_.program(), *sep, query, db, options));
      }
      result->answer = std::move(run.answer);
      result->stats = std::move(run.stats);
      return Status::OK();
    }
    case Strategy::kMagic: {
      SEPREC_RETURN_IF_ERROR(Failpoints::Check("compiler.magic"));
      SEPREC_ASSIGN_OR_RETURN(
          MagicRunResult run,
          EvaluateWithMagic(info_.program(), query, db, options));
      result->answer = std::move(run.answer);
      result->stats = std::move(run.stats);
      return Status::OK();
    }
    case Strategy::kCounting: {
      SEPREC_ASSIGN_OR_RETURN(
          CountingRunResult run,
          EvaluateWithCounting(info_.program(), query, db, options));
      result->answer = std::move(run.answer);
      result->stats = std::move(run.stats);
      return Status::OK();
    }
    case Strategy::kQsqr: {
      SEPREC_ASSIGN_OR_RETURN(
          QsqrRunResult run,
          EvaluateWithQsqr(info_.program(), query, db, options));
      result->answer = std::move(run.answer);
      result->stats = std::move(run.stats);
      return Status::OK();
    }
    case Strategy::kNonRecursive:
    case Strategy::kSemiNaive:
    case Strategy::kNaive: {
      // Materialise the query predicate (and only what it depends on),
      // then select.
      const PredicateInfo* pred = info_.Find(query.predicate);
      const bool seminaive = strategy == Strategy::kSemiNaive;
      result->stats.algorithm = strategy == Strategy::kNonRecursive
                                    ? "nonrecursive"
                                    : (seminaive ? "seminaive" : "naive");
      if (pred != nullptr && pred->is_idb) {
        std::set<std::string> wanted =
            info_.DependenciesOf(query.predicate);
        wanted.insert(query.predicate);
        Program focused;
        for (const Rule& rule : info_.program().rules) {
          if (wanted.count(rule.head.predicate)) {
            focused.rules.push_back(rule);
          }
        }
        Status status =
            strategy == Strategy::kNonRecursive
                ? EvaluateNonRecursive(focused, db, options, &result->stats)
                : (seminaive
                       ? EvaluateSemiNaive(focused, db, options,
                                           &result->stats)
                       : EvaluateNaive(focused, db, options,
                                       &result->stats));
        SEPREC_RETURN_IF_ERROR(status);
      }
      const Relation* rel = db->Find(query.predicate);
      if (rel != nullptr) {
        result->answer = SelectMatching(*rel, query, db->symbols());
      }
      return Status::OK();
    }
    case Strategy::kAuto:
      break;
  }
  return InternalError("unreachable strategy dispatch");
}

StatusOr<QueryResult> QueryProcessor::RunChain(
    const Atom& query, Database* db, const std::vector<Strategy>& chain,
    Strategy decided, std::string reason, const FixpointOptions& options,
    PreparedSeparable* schema, const Phase1Closure* reuse,
    Phase1Closure* capture, bool commit) const {
  QueryResult result;
  result.answer = seprec::Answer(query.arity());
  result.strategy = decided;
  result.reason = std::move(reason);

  // One governor context spans every attempt, so the budgets bound the
  // whole query (fallback hops included), not each attempt separately.
  GovernorScope governor(options.limits, options.cancel, options.context);
  governor.ctx()->TrackMemory(&db->accountant());
  FixpointOptions governed = options;
  governed.context = governor.ctx();

  Status last_error = InternalError("unreachable strategy dispatch");
  for (size_t i = 0; i < chain.size(); ++i) {
    result.strategy = chain[i];
    result.answer = seprec::Answer(query.arity());
    result.stats = EvalStats();

    const bool use_schema =
        schema != nullptr && chain[i] == Strategy::kSeparable;
    if (use_schema) {
      // The schema's scratch relations pre-date the checkpoint below;
      // emptying them first means the checkpoint records them at zero
      // slots, so rollback restores a clean slate whatever this run (or a
      // previous one) left behind.
      schema->ClearScratch();
    }
    DatabaseCheckpoint checkpoint(db);
    Status status =
        RunStrategy(chain[i], query, db, governed, &result,
                    use_schema ? schema : nullptr, reuse, capture);
    if (!status.ok()) {
      // Budget trips never trigger a fallback: a retry would burn the same
      // budget again and mask the limit the caller asked for.
      if (status.code() == StatusCode::kResourceExhausted ||
          status.code() == StatusCode::kCancelled) {
        return status;
      }
      last_error = status;
      if (i + 1 < chain.size()) {
        // Leave the failed attempt rolled back (checkpoint destructor) and
        // record the hop for the caller and its diagnostics stream.
        Diagnostic note;
        note.code = "G001";
        note.severity = Severity::kNote;
        note.message =
            StrCat(StrategyToString(chain[i]), " strategy failed (",
                   status.message(), "); falling back to ",
                   StrategyToString(chain[i + 1]));
        result.diagnostics.push_back(std::move(note));
        result.reason +=
            StrCat("; ", StrategyToString(chain[i]), " failed, fell back to ",
                   StrategyToString(chain[i + 1]));
      }
      continue;
    }
    if (governor.ctx()->stopped()) {
      // Partial answer: keep the harvested (sound) tuples, restore the
      // database so no half-materialised IDB outlives the query.
      result.partial = true;
      result.degradation = governor.ctx()->degradation();
      return result;  // checkpoint destructor rolls back
    }
    if (commit) {
      checkpoint.Commit();
    } else {
      // Per-request isolation: the answer is already harvested (plain
      // Values, independent of the relations), so restore the database to
      // its pre-query extent. Rollback does not bump the generation — the
      // stored data is unchanged.
      SEPREC_RETURN_IF_ERROR(checkpoint.Rollback());
    }
    return result;
  }
  return last_error;
}

StatusOr<QueryResult> QueryProcessor::Answer(
    const Atom& query, Database* db, Strategy strategy,
    const FixpointOptions& options) const {
  const PredicateInfo* pred = info_.Find(query.predicate);
  if (pred != nullptr && pred->arity != query.arity()) {
    return InvalidArgumentError(
        StrCat("query arity ", query.arity(), " does not match '",
               query.predicate, "'/", pred->arity));
  }

  std::vector<Strategy> chain;
  Strategy decided;
  std::string reason;
  if (strategy == Strategy::kAuto) {
    Decision decision = Decide(query);
    decided = decision.strategy;
    reason = std::move(decision.reason);
    chain = FallbackChain(decided);
  } else {
    decided = strategy;
    reason = "forced by caller";
    chain = {strategy};
  }
  return RunChain(query, db, chain, decided, std::move(reason), options,
                  /*schema=*/nullptr, /*reuse=*/nullptr, /*capture=*/nullptr,
                  /*commit=*/true);
}

StatusOr<QueryProcessor::PipelinePrep> QueryProcessor::RunPipeline(
    const Atom& query) const {
  DiagnosticSink sink;
  PassPipelineOptions pipeline_options;
  pipeline_options.separability = options_.separability;
  pipeline_options.max_bound = options_.pass_max_bound;
  PassManager manager = PassManager::Standard(pipeline_options);
  PipelineResult pipeline = manager.Run(info_.program(), query, &sink);

  PipelinePrep prep;
  prep.report.outcomes = std::move(pipeline.outcomes);
  prep.report.rewritten = pipeline.rewritten;
  prep.report.derecursed = pipeline.derecursed;

  if (pipeline.rewritten) {
    // The rewritten program executes from its own processor. Nothing
    // prepares that processor, so the pipeline never runs on a rewrite.
    StatusOr<QueryProcessor> inner =
        Create(std::move(pipeline.program), options_);
    if (inner.ok()) {
      prep.optimized =
          std::make_shared<const QueryProcessor>(std::move(inner).value());
    } else {
      // A rewrite that fails re-analysis would be a pass bug; degrade to
      // the original program rather than failing the query.
      prep.report.rewritten = false;
      prep.report.derecursed = false;
      sink.Report("S203", Severity::kNote, query.span,
                  StrCat("pipeline rewrite abandoned (re-analysis failed: ",
                         inner.status().message(),
                         "); compiling the original program"));
    }
  }

  const QueryProcessor* effective =
      prep.optimized != nullptr ? prep.optimized.get() : this;
  if (prep.report.derecursed) {
    prep.report.strategy = Strategy::kNonRecursive;
    prep.report.reason =
        "bounded recursion eliminated; single-pass non-recursive plan";
  } else {
    Decision decision = effective->Decide(query);
    prep.report.strategy = decision.strategy;
    prep.report.reason = std::move(decision.reason);
  }
  sink.Report("S200", Severity::kNote, query.span,
              StrCat("strategy for ", query.ToString(), ": ",
                     StrategyToString(prep.report.strategy), " (",
                     prep.report.reason,
                     "); passes: ", prep.report.Summary()));
  prep.report.diagnostics = sink.diagnostics();
  return prep;
}

StatusOr<PassReport> QueryProcessor::AnalyzeQuery(const Atom& query) const {
  const PredicateInfo* pred = info_.Find(query.predicate);
  if (pred != nullptr && pred->arity != query.arity()) {
    return InvalidArgumentError(
        StrCat("query arity ", query.arity(), " does not match '",
               query.predicate, "'/", pred->arity));
  }
  SEPREC_ASSIGN_OR_RETURN(PipelinePrep prep, RunPipeline(query));
  return std::move(prep.report);
}

StatusOr<PreparedQuery> QueryProcessor::Prepare(
    const Atom& query, Database* db, Strategy strategy,
    const ParallelPolicy& policy, bool run_pipeline) const {
  const PredicateInfo* pred = info_.Find(query.predicate);
  if (pred != nullptr && pred->arity != query.arity()) {
    return InvalidArgumentError(
        StrCat("query arity ", query.arity(), " does not match '",
               query.predicate, "'/", pred->arity));
  }

  PreparedQuery prepared;
  prepared.qp_ = this;
  prepared.predicate_ = query.predicate;
  prepared.bound_ = BoundPositions(query);
  if (strategy == Strategy::kAuto && run_pipeline) {
    SEPREC_ASSIGN_OR_RETURN(PipelinePrep prep, RunPipeline(query));
    prepared.owned_qp_ = std::move(prep.optimized);
    if (prepared.owned_qp_ != nullptr) {
      prepared.qp_ = prepared.owned_qp_.get();
    }
    prepared.decided_ = prep.report.strategy;
    prepared.reason_ = prep.report.reason;
    prepared.chain_ = FallbackChain(prepared.decided_);
    prepared.pass_report_ = std::move(prep.report);
  } else if (strategy == Strategy::kAuto) {
    Decision decision = Decide(query);
    prepared.decided_ = decision.strategy;
    prepared.reason_ = std::move(decision.reason);
    prepared.chain_ = FallbackChain(prepared.decided_);
  } else {
    prepared.decided_ = strategy;
    prepared.reason_ = "forced by caller";
    prepared.chain_ = {strategy};
  }

  // From here on everything compiles against the program the plan will
  // execute — the rewritten one when the pipeline produced it.
  const QueryProcessor* effective = prepared.qp_;
  if (prepared.pass_report_.has_value()) {
    // Plan once per prepared query: the service's compiled-plan cache
    // keeps the PreparedQuery (and with it this report), so repeat
    // executions reuse the chosen orders without re-planning.
    for (const auto& [name, info] : effective->info_.predicates()) {
      if (!info.is_idb) continue;
      SEPREC_RETURN_IF_ERROR(db->CreateRelation(name, info.arity).status());
    }
    for (const Rule& rule : effective->info_.program().rules) {
      std::vector<const Relation*> relations(rule.body.size(), nullptr);
      size_t positive = 0;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        if (lit.kind != Literal::Kind::kAtom || lit.negated) continue;
        relations[i] = db->Find(lit.atom.predicate);
        ++positive;
      }
      if (positive == 0) continue;
      PlannedBody planned =
          PlanJoinOrder(rule, relations, &db->stats(),
                        JoinOrderMode::kCostBased, /*indexed=*/true,
                        /*allow_merge=*/true);
      PlanNote note;
      note.rule = rule.ToString();
      note.order = planned.OrderString();
      note.mode = planned.mode;
      note.algo = planned.algo;
      // Per-atom statistics provenance: which relations were costed from
      // exact aggregated-segment counts vs a (possibly capped) scan.
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (relations[i] == nullptr) continue;
        RelationStats rs = db->stats().Get(*relations[i]);
        if (!note.stats.empty()) note.stats += ",";
        note.stats += StrCat(relations[i]->name(), "=",
                             StatsSourceName(rs.source));
      }
      note.cost = planned.cost;
      note.est_rows = static_cast<uint64_t>(planned.est_rows);
      prepared.pass_report_->plans.push_back(std::move(note));
    }
  }
  if (prepared.chain_.front() == Strategy::kSeparable) {
    const SeparableRecursion* sep = effective->FindSeparable(query.predicate);
    if (sep != nullptr &&
        ClassifySelection(*sep, query) == SelectionKind::kFull) {
      // Rule plans bind concrete relations, so the program's IDB
      // predicates must exist in the catalog before compilation — empty is
      // fine, Execute re-materialises them per run. CreateRelation is
      // idempotent and does not bump the generation.
      for (const auto& [name, info] : effective->info_.predicates()) {
        if (!info.is_idb) continue;
        SEPREC_RETURN_IF_ERROR(
            db->CreateRelation(name, info.arity).status());
      }
      StatusOr<std::unique_ptr<PreparedSeparable>> schema =
          PreparedSeparable::Compile(effective->info_.program(), *sep, query,
                                     db, policy);
      // A compile failure degrades softly: Execute then runs the exact
      // one-shot path Answer uses (and fails or falls back identically).
      if (schema.ok()) {
        prepared.schema_ = std::move(schema).value();
      }
    }
  }
  return prepared;
}

bool PreparedQuery::Matches(const Atom& query) const {
  return query.predicate == predicate_ && BoundPositions(query) == bound_;
}

StatusOr<QueryResult> PreparedQuery::Execute(
    const Atom& query, Database* db, const FixpointOptions& options,
    const Phase1Closure* reuse, Phase1Closure* capture, bool commit) const {
  if (qp_ == nullptr) {
    return FailedPreconditionError("PreparedQuery is moved-from or empty");
  }
  if (!Matches(query)) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(),
               " does not match the prepared shape for '", predicate_, "'"));
  }
  return qp_->RunChain(query, db, chain_, decided_, reason_, options,
                       schema_.get(), reuse, capture, commit);
}

}  // namespace seprec
