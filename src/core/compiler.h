// QueryProcessor: the recursive query compiler.
//
// Mirrors the paper's conclusion: the Separable algorithm "must supplement
// more general algorithms such as Generalized Magic Sets rather than
// replace them", and detection is cheap enough to run on every query
// (Section 3.1). The processor analyses the program once, classifies every
// recursive predicate, and dispatches each query:
//
//   separable recursion + at least one selection constant  -> Separable
//   recursive + selection constants                        -> Magic Sets
//   otherwise                                              -> semi-naive
//
// Counting and naive evaluation are available as forced strategies for the
// comparison benches.
#ifndef SEPREC_CORE_COMPILER_H_
#define SEPREC_CORE_COMPILER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/answer.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/diagnostics.h"
#include "eval/fixpoint.h"
#include "opt/pass_manager.h"
#include "separable/detection.h"
#include "separable/engine.h"
#include "storage/database.h"
#include "util/status.h"

namespace seprec {

class PreparedQuery;

enum class Strategy {
  kAuto,
  kSeparable,
  kMagic,
  kCounting,
  kQsqr,          // top-down Query-SubQuery (forced strategy / comparator)
  kNonRecursive,  // single-pass plan for recursion-free (e.g. de-recursed)
                  // programs: zero fixpoint rounds
  kSemiNaive,
  kNaive,  // last: ParseStrategy iterates kAuto..kNaive
};

std::string_view StrategyToString(Strategy strategy);
// The inverse of StrategyToString; any other name is InvalidArgument
// "unknown strategy '<name>'".
StatusOr<Strategy> ParseStrategy(std::string_view name);

struct QueryResult {
  Answer answer{0};
  EvalStats stats;
  Strategy strategy = Strategy::kAuto;  // the strategy actually used
  std::string reason;                   // why it was chosen

  // True when a resource limit (deadline, cancellation, or a budget from
  // FixpointOptions::limits) stopped the evaluation early. The answer then
  // holds a sound subset of the full answer (stratified evaluation is
  // monotone within a stratum, so a truncated run only emits true tuples)
  // and nothing the evaluation wrote reached the caller's database.
  bool partial = false;
  // Which limit tripped, when `partial` is true.
  std::optional<DegradationInfo> degradation;
  // Execution-time notes, e.g. a G001 record for each strategy fallback.
  std::vector<Diagnostic> diagnostics;
};

struct ProcessorOptions {
  // Forwarded to AnalyzeSeparable; set
  // separability.require_connected_bodies = false to accept the Section 5
  // condition-4 relaxation (correct but unfocused evaluation).
  SeparabilityOptions separability;

  // Largest recursion bound the boundedness pass tries to prove.
  size_t pass_max_bound = 3;
};

// What the pass pipeline concluded for one query: the per-pass verdicts,
// the diagnostics they reported (S2xx notes plus absorbed explainer
// output), and the strategy decided on the post-pipeline program. Recorded
// in the PreparedQuery — and thus in the service's compiled-plan cache —
// and rendered by `seprec_cli analyze`.
// The join order the cost-based planner chose for one rule of the
// prepared program, recorded so `analyze` output and `plan` trace events
// can show what the engines will execute without recompiling.
struct PlanNote {
  std::string rule;   // rule.ToString()
  std::string order;  // "0,2,1": body indices of the positive atoms
  std::string mode;   // "cbo" | "cbo-fallback" | "textual"
  std::string algo;   // "merge" (leading pair merge-joins) | "hash"
  std::string stats;  // per-relation statistics source, e.g.
                      // "edge=exact,cost=sampled" (segment-backed counts
                      // vs scan/extrapolation — see StatsSourceName)
  double cost = 0.0;
  uint64_t est_rows = 0;
};

struct PassReport {
  std::vector<PassOutcome> outcomes;
  std::vector<Diagnostic> diagnostics;
  std::vector<PlanNote> plans;  // filled by Prepare (not AnalyzeQuery)
  Strategy strategy = Strategy::kSemiNaive;
  std::string reason;
  bool rewritten = false;   // some pass changed the program
  bool derecursed = false;  // the query predicate left recursion

  // "dead-rules=proved,bounded=rewritten,separability=abstained"
  std::string Summary() const { return SummarizeOutcomes(outcomes); }
};

class QueryProcessor {
 public:
  // Validates and analyses `program` (arity consistency, safety) and
  // pre-computes separability for every recursive IDB predicate.
  static StatusOr<QueryProcessor> Create(Program program,
                                         const ProcessorOptions& options = {});

  struct Decision {
    Strategy strategy = Strategy::kSemiNaive;
    std::string reason;
  };

  // The strategy kAuto would pick for `query`.
  Decision Decide(const Atom& query) const;

  // A human-readable explanation of how `query` would be evaluated: the
  // decision and reason, plus the strategy-specific artifact — the
  // instantiated Figure-2 schema for Separable, the rewritten program for
  // Magic, the focused rule set for semi-naive.
  StatusOr<std::string> Explain(const Atom& query) const;

  // Answers `query` against `db`. `strategy` kAuto defers to Decide; a
  // forced strategy fails with FAILED_PRECONDITION when inapplicable.
  //
  // Stored rows are facts: the program runs with an exit rule for each
  // IDB predicate `db` stores (see WithStoredRows). Prepare does the same.
  //
  // Each attempt evaluates in a fresh overlay of `db` (see Database), and
  // only a complete answer hands the overlay's relations to `db`.
  //
  // Resource governance: the query runs under one ExecutionContext built
  // from `options` (or adopts options.context). When a limit trips, the
  // overlay is discarded and the call returns OK with
  // QueryResult::partial set — never a half-materialised IDB.
  // In kAuto mode a strategy that fails for a NON-budget reason falls back
  // along separable -> magic -> semi-naive; each hop is recorded in
  // QueryResult::reason and as a G001 diagnostic.
  StatusOr<QueryResult> Answer(const Atom& query, Database* db,
                               Strategy strategy = Strategy::kAuto,
                               const FixpointOptions& options = {}) const;

  // The prepare half of Answer: performs the per-query-SHAPE work — the
  // strategy decision, the fallback chain, and (for a full selection on a
  // separable predicate) the compiled Figure-2 schema — once, so the
  // returned PreparedQuery re-executes concrete selections of that shape
  // (same predicate, same bound-position set, any constants) without
  // re-deciding or re-compiling. This is the paper's compile/evaluate
  // split as an API: Prepare is the database-independent per-program cost,
  // Execute the per-selection cost.
  //
  // The PreparedQuery owns an overlay of `db` and compiles into it: the
  // program's IDB relations (empty, so the plans have something to bind)
  // and the schema's scratch. It must be destroyed before `db` and is
  // invalidated by Drop of any `db` relation its plans read. A
  // schema-compile failure degrades softly: the PreparedQuery is still
  // returned, and Execute runs the exact one-shot path Answer uses.
  //
  // The processor must outlive the returned PreparedQuery.
  //
  // With `run_pipeline` true and kAuto strategy, Prepare first runs the
  // static pass pipeline (src/opt): the decision is then made on the
  // rewritten program, the PreparedQuery carries the PassReport, and a
  // rewrite (e.g. a de-recursed bounded recursion) is executed from an
  // internally owned processor for the rewritten program. `run_pipeline`
  // false is the per-request ablation knob the query service exposes.
  StatusOr<PreparedQuery> Prepare(const Atom& query, Database* db,
                                  Strategy strategy = Strategy::kAuto,
                                  bool run_pipeline = true) const;

  // Runs the pass pipeline for `query` and decides the strategy on the
  // resulting program, without compiling anything against a database —
  // the static half of Prepare, used by `seprec_cli analyze`.
  StatusOr<PassReport> AnalyzeQuery(const Atom& query) const;

  const Program& program() const { return info_.program(); }

  // The separability analysis for `predicate`, if it is separable.
  const SeparableRecursion* FindSeparable(std::string_view predicate) const;
  // The detection failure reason for a non-separable recursive predicate.
  std::string SeparabilityFailure(std::string_view predicate) const;

  // The full structured detection record for a non-separable recursive
  // predicate: every Definition 2.4 condition it violates (S1xx codes with
  // source spans), not just the first. nullptr when `predicate` is
  // separable or not a recursive IDB predicate. Explain() renders these as
  // the rejected-strategy section.
  const std::vector<Diagnostic>* SeparabilityDiagnostics(
      std::string_view predicate) const;

 private:
  friend class PreparedQuery;

  QueryProcessor() = default;

  // The pipeline half shared by Prepare and AnalyzeQuery: the report plus,
  // when a pass rewrote the program, a processor for the rewritten program
  // (created with the pipeline disabled, so rewrites never recurse).
  struct PipelinePrep {
    PassReport report;
    std::shared_ptr<const QueryProcessor> optimized;  // null unless rewritten
  };
  StatusOr<PipelinePrep> RunPipeline(const Atom& query) const;

  // The program plus p(X1, ..., Xk) :- p'(X1, ..., Xk) for each IDB
  // predicate p the root of `db` stores (p' = Database::StoredRowsName(p)),
  // or null when it stores none; another arity is INVALID_ARGUMENT.
  StatusOr<std::shared_ptr<const QueryProcessor>> WithStoredRows(
      const Database& db) const;

  // Executes one concrete (non-kAuto) strategy, filling result->answer and
  // result->stats. `options.context` must be set by the caller. When
  // `schema` is non-null and the strategy is Separable, the pre-compiled
  // schema executes instead of a fresh one-shot compilation, with the
  // optional phase-1 closure reuse/capture handles forwarded.
  Status RunStrategy(Strategy strategy, const Atom& query, Database* db,
                     const FixpointOptions& options, QueryResult* result,
                     PreparedSeparable* schema = nullptr,
                     const Phase1Closure* reuse = nullptr,
                     Phase1Closure* capture = nullptr) const;

  // The execute half shared by Answer and PreparedQuery::Execute: runs the
  // fallback chain under one governor context, each attempt in an overlay
  // of `db`. With `overlay` null (Answer) the attempts share a fresh one,
  // discarded between attempts and committed to `db` when the answer is
  // complete. Otherwise (a prepared query) `overlay` arrives empty, is
  // cleared between attempts, and Execute empties it after the chain; the
  // answer holds plain Values, valid after that.
  StatusOr<QueryResult> RunChain(const Atom& query, Database* db,
                                 const std::vector<Strategy>& chain,
                                 Strategy decided, std::string reason,
                                 const FixpointOptions& options,
                                 Database* overlay, PreparedSeparable* schema,
                                 const Phase1Closure* reuse,
                                 Phase1Closure* capture) const;

  ProgramInfo info_;
  ProcessorOptions options_;
  std::map<std::string, SeparableRecursion> separable_;
  std::map<std::string, std::string> not_separable_reason_;
  std::map<std::string, std::vector<Diagnostic>> separability_diagnostics_;
};

// The compiled artifact QueryProcessor::Prepare returns: the strategy
// decision and fallback chain for one selection shape, plus (when the
// decision is a full-selection Separable run) the compiled schema, both
// held in an overlay of the prepared database that this object owns — the
// program's IDB relations and the carry/seen relations belong to the
// compiled selection, not to the catalog (Section 3.3, Figure 2). Execute
// mirrors Answer's chain, partial semantics and G001 fallback notes, adds
// phase-1 closure reuse/capture, and empties the overlay after every
// request. Movable, not copyable.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;
  ~PreparedQuery() { schema_.reset(); }

  Strategy strategy() const { return decided_; }
  const std::string& reason() const { return reason_; }
  // True when a compiled Figure-2 schema is attached (full-selection
  // separable shape); such executions support closure reuse/capture.
  bool has_compiled_schema() const { return schema_ != nullptr; }
  // The attached schema itself (null without one) — the query service
  // asks it how a cached closure can be maintained incrementally.
  const PreparedSeparable* compiled_schema() const { return schema_.get(); }

  // The pass pipeline's record for this prepared shape — the strategy
  // decision plus every per-pass verdict. Null when the pipeline did not
  // run (forced strategy, or the ablation flag off).
  const PassReport* pass_report() const {
    return pass_report_.has_value() ? &*pass_report_ : nullptr;
  }
  // True when the pipeline rewrote the program and this plan executes the
  // rewritten form (from an internally owned processor).
  bool pipeline_rewrote() const {
    return pass_report_.has_value() && pass_report_->rewritten;
  }

  // True when, under the name of a predicate the plan derives, the root
  // stores another relation than at Prepare (typically a first one): the
  // plan lacks its exit rule. One root lookup per IDB predicate.
  bool Stale() const {
    for (const auto& [stored_name, stored] : stored_) {
      if (db_->Find(stored_name) != stored) return true;
    }
    return false;
  }

  // True when `query` has this prepared shape: same predicate and the same
  // bound-position set (constants are free to differ).
  bool Matches(const Atom& query) const;

  // Answers `query` (which must match the prepared shape) against `db`,
  // which must be the database Prepare compiled against. `reuse`/`capture`
  // forward to the compiled schema (ignored without one, or on fallback
  // attempts). Nothing the evaluation writes reaches `db`: `commit` true is
  // INVALID_ARGUMENT (use QueryProcessor::Answer to keep derived tuples).
  // A Stale plan is FAILED_PRECONDITION.
  StatusOr<QueryResult> Execute(const Atom& query, Database* db,
                                const FixpointOptions& options = {},
                                const Phase1Closure* reuse = nullptr,
                                Phase1Closure* capture = nullptr,
                                bool commit = false) const;

 private:
  friend class QueryProcessor;
  PreparedQuery() = default;

  const QueryProcessor* qp_ = nullptr;  // must outlive this object
  // The program the plan runs when not the outer processor's (exit rules
  // added, or rewritten by the pipeline); stored_: each IDB predicate's
  // StoredRowsName and what it resolved to at Prepare, for Stale.
  std::shared_ptr<const QueryProcessor> owned_qp_;
  std::vector<std::pair<std::string, const Relation*>> stored_;
  std::optional<PassReport> pass_report_;
  std::string predicate_;
  std::vector<bool> bound_;  // the prepared selection shape
  Strategy decided_ = Strategy::kSemiNaive;
  std::string reason_;
  std::vector<Strategy> chain_;
  Database* db_ = nullptr;  // the database Prepare saw
  // The schema's plans bind relations of the overlay, where every
  // execution evaluates, so the schema must go first: it is declared
  // before the overlay (a move assignment replaces it first) and the
  // destructor resets it before the members are destroyed.
  std::unique_ptr<PreparedSeparable> schema_;  // null unless full+separable
  std::unique_ptr<Database> overlay_;
};

}  // namespace seprec

#endif  // SEPREC_CORE_COMPILER_H_
