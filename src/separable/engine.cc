#include "separable/engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>

#include "core/query.h"
#include "core/support.h"
#include "eval/engine_run.h"
#include "eval/join_plan.h"
#include "eval/trace.h"
#include "util/string_util.h"

namespace seprec {

// Which columns anchor the evaluation: a fully bound class (phase 1 walks
// it) or bound persistent columns (the dummy equivalence class — phase 1
// degenerates to seen_1 := {constants}). File-local, but at namespace
// scope (not anonymous) so PreparedSeparable::Impl can hold one without
// giving an exported type internal-linkage members.
struct AnchorInfo {
  std::optional<size_t> anchor_class;
  std::vector<uint32_t> anchor_positions;  // ascending
  std::vector<uint32_t> rest_positions;    // ascending complement
};

namespace {

std::optional<AnchorInfo> FindAnchor(const SeparableRecursion& sep,
                                     const std::vector<bool>& bound) {
  AnchorInfo anchor;
  std::set<uint32_t> ap;
  for (uint32_t p : sep.persistent_positions) {
    if (bound[p]) ap.insert(p);
  }
  if (!ap.empty()) {
    anchor.anchor_class = std::nullopt;
  } else {
    bool found = false;
    for (size_t c = 0; c < sep.classes.size() && !found; ++c) {
      bool all = true;
      for (uint32_t p : sep.classes[c].positions) {
        if (!bound[p]) all = false;
      }
      if (all) {
        anchor.anchor_class = c;
        ap.insert(sep.classes[c].positions.begin(),
                  sep.classes[c].positions.end());
        found = true;
      }
    }
    if (!found) return std::nullopt;
  }
  anchor.anchor_positions.assign(ap.begin(), ap.end());
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (!ap.count(p)) anchor.rest_positions.push_back(p);
  }
  return anchor;
}

// ---- Synthetic rules instantiating the Figure 2 schema -----------------

Term HeadVar(const SeparableRecursion& sep, uint32_t p) {
  return Term::Var(sep.recursion.head_vars[p]);
}

// Nonrecursive body literals of recursive rule `i`.
std::vector<Literal> NonRecursiveLits(const SeparableRecursion& sep,
                                      size_t i) {
  std::vector<Literal> out;
  const Rule& rule = sep.recursion.recursive_rules[i];
  for (size_t j = 0; j < rule.body.size(); ++j) {
    if (j != sep.recursion.recursive_atom_index[i]) out.push_back(rule.body[j]);
  }
  return out;
}

// carry'(V_b(t|e1)) :- carry(V_h(t|e1)) & a_i   — the f_1 operator terms.
Rule MakePhase1Rule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                    size_t rule_index, const std::string& carry_name,
                    const std::string& out_name) {
  const Atom& body_t = sep.recursion.RecursiveBodyAtom(rule_index);
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.anchor_positions) {
    rule.head.args.push_back(body_t.args[p]);
  }
  Atom carry;
  carry.predicate = carry_name;
  for (uint32_t p : anchor.anchor_positions) {
    carry.args.push_back(HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(carry)));
  for (Literal& lit : NonRecursiveLits(sep, rule_index)) {
    rule.body.push_back(std::move(lit));
  }
  return rule;
}

// carry_2(rest) :- seen_1(V_h(t|e1)) & exit body   — the g_2 operator.
Rule MakeExitRule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                  size_t exit_index, const std::string& seen1_name,
                  const std::string& out_name) {
  const Rule& exit = sep.recursion.exit_rules[exit_index];
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.rest_positions) {
    rule.head.args.push_back(HeadVar(sep, p));
  }
  Atom seen;
  seen.predicate = seen1_name;
  for (uint32_t p : anchor.anchor_positions) {
    seen.args.push_back(HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(seen)));
  for (const Literal& lit : exit.body) rule.body.push_back(lit);
  return rule;
}

// carry'(V_h positions of rest) :- carry(body-instance rest) & a_ij — f_2.
Rule MakePhase2Rule(const SeparableRecursion& sep, const AnchorInfo& anchor,
                    size_t rule_index, const std::string& carry_name,
                    const std::string& out_name) {
  const Atom& body_t = sep.recursion.RecursiveBodyAtom(rule_index);
  const EquivalenceClass& ec = sep.classes[sep.class_of_rule[rule_index]];
  std::set<uint32_t> own(ec.positions.begin(), ec.positions.end());
  Rule rule;
  rule.head.predicate = out_name;
  for (uint32_t p : anchor.rest_positions) {
    rule.head.args.push_back(HeadVar(sep, p));
  }
  Atom carry;
  carry.predicate = carry_name;
  for (uint32_t p : anchor.rest_positions) {
    // Positions of this rule's own class advance (body-instance variable);
    // every other rest column passes through unchanged.
    carry.args.push_back(own.count(p) ? body_t.args[p] : HeadVar(sep, p));
  }
  rule.body.push_back(Literal::MakeAtom(std::move(carry)));
  for (Literal& lit : NonRecursiveLits(sep, rule_index)) {
    rule.body.push_back(std::move(lit));
  }
  return rule;
}

}  // namespace

// ---- Schema runner -------------------------------------------------------
// At namespace scope (not anonymous) for the same reason as AnchorInfo:
// PreparedSeparable::Impl owns one across executions.

class SchemaRunner {
 public:
  SchemaRunner(const SeparableRecursion& sep, AnchorInfo anchor, Database* db,
               JoinOrderMode join_order = JoinOrderMode::kCostBased)
      : sep_(sep),
        anchor_(std::move(anchor)),
        db_(db),
        join_order_(join_order) {
    // Atomic: the query service compiles prepared schemas from concurrent
    // session threads. Unsigned: every compile and one-shot run takes a
    // number, and a long-lived server must wrap rather than overflow.
    static std::atomic<uint64_t> counter{0};
    prefix_ = StrCat("$sep", counter.fetch_add(1, std::memory_order_relaxed),
                     "_");
  }

  ~SchemaRunner() {
    for (const char* suffix : {"carry1", "seen1", "carry2", "seen2"}) {
      db_->Drop(prefix_ + suffix);
    }
  }

  SchemaRunner(const SchemaRunner&) = delete;
  SchemaRunner& operator=(const SchemaRunner&) = delete;

  Status Compile() {
    const size_t w = anchor_.anchor_positions.size();
    const size_t rest = anchor_.rest_positions.size();
    SEPREC_ASSIGN_OR_RETURN(carry1_,
                            db_->CreateRelation(prefix_ + "carry1", w));
    SEPREC_ASSIGN_OR_RETURN(seen1_,
                            db_->CreateRelation(prefix_ + "seen1", w));
    SEPREC_ASSIGN_OR_RETURN(carry2_,
                            db_->CreateRelation(prefix_ + "carry2", rest));
    SEPREC_ASSIGN_OR_RETURN(seen2_,
                            db_->CreateRelation(prefix_ + "seen2", rest));
    sink1_ = std::make_unique<StagingSink>(w);
    sink2_ = std::make_unique<StagingSink>(rest);
    sink1_->SetAccountant(&db_->accountant());
    sink2_->SetAccountant(&db_->accountant());

    PlanOptions plan_opts;
    plan_opts.join_order = join_order_;
    if (anchor_.anchor_class.has_value()) {
      const EquivalenceClass& ec = sep_.classes[*anchor_.anchor_class];
      for (size_t r : ec.rule_indices) {
        Rule rule = MakePhase1Rule(sep_, anchor_, r, carry1_->name(), "$new1");
        phase1_labels_.push_back(rule.ToString());
        SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                                RulePlan::Compile(rule, db_, plan_opts));
        phase1_plans_.push_back(std::move(plan));
      }
    }
    for (size_t e = 0; e < sep_.recursion.exit_rules.size(); ++e) {
      Rule rule = MakeExitRule(sep_, anchor_, e, seen1_->name(), "$init2");
      exit_labels_.push_back(rule.ToString());
      SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                              RulePlan::Compile(rule, db_, plan_opts));
      exit_plans_.push_back(std::move(plan));
    }
    for (size_t r = 0; r < sep_.recursion.recursive_rules.size(); ++r) {
      if (anchor_.anchor_class.has_value() &&
          sep_.class_of_rule[r] == *anchor_.anchor_class) {
        continue;
      }
      Rule rule = MakePhase2Rule(sep_, anchor_, r, carry2_->name(), "$new2");
      phase2_labels_.push_back(rule.ToString());
      SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                              RulePlan::Compile(rule, db_, plan_opts));
      phase2_plans_.push_back(std::move(plan));
    }
    return Status::OK();
  }

  // Empties the scratch relations and staging sinks; Run does this on
  // entry.
  void ClearScratch() {
    carry1_->Clear();
    seen1_->Clear();
    carry2_->Clear();
    seen2_->Clear();
    sink1_->Clear();
    sink2_->Clear();
  }

  // Runs the schema from `seeds` (each of width |anchor_positions|) and
  // leaves the seen_2 rows (rest-position values) in seen2() until the
  // next Run. Polls `ctx` at every carry/seen round
  // boundary; on a trip the phases stop early and the seen_2 rows
  // harvested so far are still there — every one is a true tuple, so a
  // truncated run yields a sound partial answer.
  //
  // `reuse`/`capture` implement the resumable phase 2 behind the closure
  // cache: with `reuse`, seen_1 is seeded from the cached closure instead
  // of the seeds and the phase-1 loop never runs (carry_1 stays empty);
  // with `capture`, a run whose phase-1 loop completed (drained carry_1
  // without a governor trip) copies seen_1 out for caching.
  void Run(const std::vector<std::vector<Value>>& seeds,
           ExecutionContext* ctx, EvalStats* stats,
           const Phase1Closure* reuse = nullptr,
           Phase1Closure* capture = nullptr) {
    ClearScratch();

    size_t inserted = 0;
    size_t max_carry1 = 0;
    size_t max_carry2 = 0;
    size_t iterations = 0;

    // The sink attached to the governing context (one sink observes every
    // schema run of a query; round numbering restarts per run).
    TraceSink* trace = ctx->trace();
    const bool measuring = stats != nullptr || trace != nullptr;

    auto trace_round_start = [trace](const char* phase, size_t round,
                                     size_t delta) {
      if (trace == nullptr) return;
      TraceEvent e;
      e.kind = TraceEventKind::kRoundStart;
      e.engine = "separable";
      e.phase = phase;
      e.round = round;
      e.delta = delta;
      trace->Emit(e);
    };
    auto note_rule = [trace, stats](const char* phase, size_t round,
                                    const std::string& label,
                                    const RuleExecMetrics& m) {
      if (stats != nullptr) {
        stats->NoteRule(label, m.emitted, m.inserted, m.probes);
      }
      if (trace != nullptr && (m.emitted > 0 || m.probes > 0)) {
        TraceEvent e;
        e.kind = TraceEventKind::kRule;
        e.engine = "separable";
        e.phase = phase;
        e.round = round;
        e.rule = label;
        e.emitted = m.emitted;
        e.inserted = m.inserted;
        e.probes = m.probes;
        trace->Emit(e);
      }
    };
    auto round_finish = [trace, stats](const char* phase, size_t round,
                                       size_t emitted, size_t staged,
                                       size_t new_rows) {
      if (stats != nullptr) {
        stats->NoteRound(phase, round, emitted, new_rows);
      }
      if (trace == nullptr) return;
      TraceEvent merge;
      merge.kind = TraceEventKind::kMerge;
      merge.engine = "separable";
      merge.phase = phase;
      merge.round = round;
      merge.staged = staged;
      merge.inserted = new_rows;
      trace->Emit(merge);
      TraceEvent e;
      e.kind = TraceEventKind::kRoundEnd;
      e.engine = "separable";
      e.phase = phase;
      e.round = round;
      e.emitted = emitted;
      e.inserted = new_rows;
      e.delta = new_rows;
      trace->Emit(e);
    };

    if (reuse != nullptr) {
      // Resume from the cached closure: seen_1 is already complete, so
      // carry_1 stays empty and the phase-1 loop below is a no-op. The
      // closure rows still count as insertions (tuple budget included) —
      // a closure-hit run reports the work of materialising seen_1, just
      // not of deriving it.
      for (const std::vector<Value>& row : reuse->rows) {
        if (seen1_->Insert(Row(row.data(), row.size()))) ++inserted;
      }
    } else {
      for (const std::vector<Value>& seed : seeds) {
        Row row(seed.data(), seed.size());
        carry1_->Insert(row);
        if (seen1_->Insert(row)) ++inserted;
      }
    }
    ctx->NoteTuples(inserted);
    max_carry1 = carry1_->size();

    // Phase 1 (skipped for a persistent-column anchor). The sink's
    // canonical merge gives seen_1/carry_1 a deterministic slot order.
    if (anchor_.anchor_class.has_value()) {
      size_t round1 = 0;
      while (!carry1_->empty()) {
        ++iterations;
        if (ctx->NoteIterationAndCheck()) break;
        trace_round_start("phase1", round1, carry1_->size());
        size_t emitted = 0;
        for (size_t j = 0; j < phase1_plans_.size(); ++j) {
          RuleExecMetrics m;
          phase1_plans_[j].ExecuteInto(sink1_.get(), nullptr,
                                       measuring ? &m : nullptr);
          if (measuring) {
            emitted += m.emitted;
            note_rule("phase1", round1, phase1_labels_[j], m);
          }
        }
        carry1_->Clear();
        size_t staged = 0;
        size_t round = sink1_->MergeInto(seen1_, carry1_,
                                         measuring ? &staged : nullptr);
        inserted += round;
        ctx->NoteTuples(round);
        max_carry1 = std::max(max_carry1, carry1_->size());
        round_finish("phase1", round1, emitted, staged, round);
        ++round1;
      }
    }

    // A persistent-column anchor has no phase-1 loop at all, so its seed
    // rows legitimately remain in carry_1; only a class anchor's loop must
    // have drained for seen_1 to be complete.
    const bool phase1_complete =
        anchor_.anchor_class.has_value() ? carry1_->empty() : true;
    if (capture != nullptr && phase1_complete && !ctx->stopped()) {
      // Phase 1 completed without a trip: seen_1 is the complete closure
      // of the anchor class under the selection (trivially {seeds} for a
      // persistent-column anchor). An interrupted loop leaves carry_1
      // non-empty or a latched stop cause, so incomplete closures are
      // never handed out for caching.
      capture->rows.clear();
      capture->rows.reserve(seen1_->size());
      seen1_->ForEachRow([capture](Row row) {
        capture->rows.emplace_back(row.begin(), row.end());
      });
    }

    // Phase 2 initialisation: carry_2 := g_2(seen_1).
    trace_round_start("exit", 0, seen1_->size());
    size_t exit_emitted = 0;
    for (size_t j = 0; j < exit_plans_.size(); ++j) {
      RuleExecMetrics m;
      exit_plans_[j].ExecuteInto(sink2_.get(), nullptr,
                                 measuring ? &m : nullptr);
      if (measuring) {
        exit_emitted += m.emitted;
        note_rule("exit", 0, exit_labels_[j], m);
      }
    }
    carry2_->Clear();
    size_t exit_staged = 0;
    size_t init2 =
        sink2_->MergeInto(seen2_, carry2_, measuring ? &exit_staged : nullptr);
    inserted += init2;
    ctx->NoteTuples(init2);
    max_carry2 = carry2_->size();
    round_finish("exit", 0, exit_emitted, exit_staged, init2);

    if (!phase2_plans_.empty()) {
      size_t round2 = 0;
      while (!carry2_->empty()) {
        ++iterations;
        if (ctx->NoteIterationAndCheck()) break;
        trace_round_start("phase2", round2, carry2_->size());
        size_t emitted = 0;
        for (size_t j = 0; j < phase2_plans_.size(); ++j) {
          RuleExecMetrics m;
          phase2_plans_[j].ExecuteInto(sink2_.get(), nullptr,
                                       measuring ? &m : nullptr);
          if (measuring) {
            emitted += m.emitted;
            note_rule("phase2", round2, phase2_labels_[j], m);
          }
        }
        carry2_->Clear();
        size_t staged = 0;
        size_t round = sink2_->MergeInto(seen2_, carry2_,
                                         measuring ? &staged : nullptr);
        inserted += round;
        ctx->NoteTuples(round);
        max_carry2 = std::max(max_carry2, carry2_->size());
        round_finish("phase2", round2, emitted, staged, round);
        ++round2;
      }
    }

    if (stats != nullptr) {
      stats->iterations += iterations;
      stats->tuples_inserted += inserted;
      stats->NoteRelationMax("carry_1", max_carry1);
      stats->NoteRelationMax("seen_1", seen1_->size());
      stats->NoteRelationMax("carry_2", max_carry2);
      stats->NoteRelationMax("seen_2", seen2_->size());
      stats->NoteRelationMax("ans", seen2_->size());
    }
  }

  const AnchorInfo& anchor() const { return anchor_; }
  // The last Run's seen_2 (a rest of width 0 holds at most its empty row).
  const Relation& seen2() const { return *seen2_; }

 private:
  const SeparableRecursion& sep_;
  AnchorInfo anchor_;
  Database* db_;
  std::string prefix_;
  Relation* carry1_ = nullptr;
  Relation* seen1_ = nullptr;
  Relation* carry2_ = nullptr;
  Relation* seen2_ = nullptr;
  std::unique_ptr<StagingSink> sink1_;
  std::unique_ptr<StagingSink> sink2_;
  std::vector<RulePlan> phase1_plans_;
  std::vector<RulePlan> exit_plans_;
  std::vector<RulePlan> phase2_plans_;
  // Synthetic-rule source text, parallel to the plan vectors — the stable
  // keys of EvalStats::rule_stats and trace rule events.
  std::vector<std::string> phase1_labels_;
  std::vector<std::string> exit_labels_;
  std::vector<std::string> phase2_labels_;
  JoinOrderMode join_order_;
};

namespace {

// Assembles a full-arity answer row from the anchor values and each seen_2
// row, in one scratch row, and adds it to `answer` if it matches the query
// (extra constants outside the anchor and repeated query variables become
// post-filters).
void EmitAnswers(const AnchorInfo& anchor, Row anchor_values,
                 const Relation& seen2, const Atom& query,
                 const std::vector<std::optional<Value>>& query_constants,
                 Answer* answer) {
  std::vector<Value> full(query.arity());
  for (size_t i = 0; i < anchor.anchor_positions.size(); ++i) {
    full[anchor.anchor_positions[i]] = anchor_values[i];
  }
  for (size_t r = 0; r < seen2.size(); ++r) {
    Row rest = seen2.row(r);
    for (size_t i = 0; i < anchor.rest_positions.size(); ++i) {
      full[anchor.rest_positions[i]] = rest[i];
    }
    Row row(full.data(), full.size());
    if (RowMatchesQuery(row, query, query_constants)) {
      answer->Add(row);
    }
  }
}

// Forward declaration for the partial-selection driver's recursion (the
// t_part branch is itself a full selection on a reduced recursion).
Status EvaluateSelection(const Program& program, const SeparableRecursion& sep,
                         const Atom& query, Database* db,
                         ExecutionContext* ctx, JoinOrderMode join_order,
                         SeparableRunResult* result);

// Lemma 2.1: evaluate a partial selection as a union of full selections.
Status EvaluatePartial(const Program& program, const SeparableRecursion& sep,
                       const Atom& query, Database* db, ExecutionContext* ctx,
                       JoinOrderMode join_order, SeparableRunResult* result) {
  result->used_partial_rewrite = true;
  std::vector<bool> bound = BoundPositions(query);

  // Pick e1: a class bound on a proper nonempty subset of its columns.
  std::optional<size_t> e1;
  for (size_t c = 0; c < sep.classes.size() && !e1.has_value(); ++c) {
    size_t hits = 0;
    for (uint32_t p : sep.classes[c].positions) {
      if (bound[p]) ++hits;
    }
    if (hits > 0 && hits < sep.classes[c].positions.size()) e1 = c;
  }
  SEPREC_CHECK(e1.has_value());

  // Branch A: t_part — the recursion without e1; the selection constants
  // now sit in persistent columns, a full selection.
  SeparableRecursion part = RemoveClass(sep, *e1);
  SEPREC_RETURN_IF_ERROR(
      EvaluateSelection(program, part, query, db, ctx, join_order, result));

  // Branch B: t :- t_full & a_1j for each rule of e1 — sideways
  // information passing through a_1j binds all of e1's columns, yielding
  // full selections on the original recursion.
  const EquivalenceClass& ec = sep.classes[*e1];
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  SEPREC_CHECK(resolvable);  // driver interned all query constants

  AnchorInfo full_anchor;
  full_anchor.anchor_class = *e1;
  full_anchor.anchor_positions = ec.positions;
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (std::find(ec.positions.begin(), ec.positions.end(), p) ==
        ec.positions.end()) {
      full_anchor.rest_positions.push_back(p);
    }
  }
  SchemaRunner runner(sep, full_anchor, db, join_order);
  SEPREC_RETURN_IF_ERROR(runner.Compile());

  // Seed bindings: evaluate each e1 rule's nonrecursive body with the
  // query constants substituted, collecting (head e1 values, body-instance
  // e1 values) pairs.
  const size_t w = ec.positions.size();
  std::map<std::vector<Value>, std::set<std::vector<Value>>> seeds_to_heads;
  Substitution constant_sub;
  for (uint32_t p = 0; p < sep.arity(); ++p) {
    if (bound[p]) {
      constant_sub[sep.recursion.head_vars[p]] = query.args[p];
    }
  }
  for (size_t r : ec.rule_indices) {
    const Atom& body_t = sep.recursion.RecursiveBodyAtom(r);
    Rule binding_rule;
    binding_rule.head.predicate = "$bindings";
    for (uint32_t p : ec.positions) {
      binding_rule.head.args.push_back(HeadVar(sep, p));
    }
    for (uint32_t p : ec.positions) {
      binding_rule.head.args.push_back(body_t.args[p]);
    }
    binding_rule.body = NonRecursiveLits(sep, r);
    binding_rule = Substitute(binding_rule, constant_sub);
    PlanOptions binding_opts;
    binding_opts.join_order = join_order;
    SEPREC_ASSIGN_OR_RETURN(RulePlan plan,
                            RulePlan::Compile(binding_rule, db, binding_opts));
    Relation bindings("$bindings", 2 * w);
    plan.ExecuteInto(&bindings);
    result->stats.NoteRelationMax("bindings", bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i) {
      Row row = bindings.row(i);
      std::vector<Value> head_vals(row.begin(), row.begin() + w);
      std::vector<Value> seed_vals(row.begin() + w, row.end());
      seeds_to_heads[std::move(seed_vals)].insert(std::move(head_vals));
    }
  }

  // One full-selection schema run per distinct seed. Rows already harvested
  // stay in the answer when a limit trips mid-union — each branch emits
  // only true tuples, so stopping between branches keeps the answer sound.
  for (const auto& [seed, heads] : seeds_to_heads) {
    if (ctx->ShouldStop()) break;
    runner.Run({seed}, ctx, &result->stats);
    ++result->schema_runs;
    for (const std::vector<Value>& head_vals : heads) {
      EmitAnswers(full_anchor, Row(head_vals.data(), head_vals.size()),
                  runner.seen2(), query, query_constants, &result->answer);
    }
  }
  return Status::OK();
}

Status EvaluateSelection(const Program& program, const SeparableRecursion& sep,
                         const Atom& query, Database* db,
                         ExecutionContext* ctx, JoinOrderMode join_order,
                         SeparableRunResult* result) {
  std::vector<bool> bound = BoundPositions(query);
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return EvaluatePartial(program, sep, query, db, ctx, join_order, result);
  }

  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  SEPREC_CHECK(resolvable);

  std::vector<Value> seed;
  for (uint32_t p : anchor->anchor_positions) {
    seed.push_back(*query_constants[p]);
  }

  SchemaRunner runner(sep, *anchor, db, join_order);
  SEPREC_RETURN_IF_ERROR(runner.Compile());
  runner.Run({seed}, ctx, &result->stats);
  ++result->schema_runs;
  EmitAnswers(*anchor, Row(seed.data(), seed.size()), runner.seen2(), query,
              query_constants, &result->answer);
  return Status::OK();
}

}  // namespace

SelectionKind ClassifySelection(const SeparableRecursion& sep,
                                const Atom& query) {
  std::vector<bool> bound = BoundPositions(query);
  bool any = false;
  for (bool b : bound) any = any || b;
  if (!any) return SelectionKind::kNoConstants;
  return FindAnchor(sep, bound).has_value() ? SelectionKind::kFull
                                            : SelectionKind::kPartial;
}

StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const SeparableRecursion& sep, const Atom& query,
    Database* db, const FixpointOptions& options) {
  if (query.arity() != sep.arity() || query.predicate != sep.predicate()) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(), " does not match recursion '",
               sep.predicate(), "'/", sep.arity()));
  }
  if (ClassifySelection(sep, query) == SelectionKind::kNoConstants) {
    return InvalidArgumentError(
        "the Separable algorithm requires a selection constant");
  }

  SeparableRunResult result;
  result.answer = Answer(query.arity());
  result.stats.algorithm = "separable";
  EngineRun run("separable", options, db, &result.stats);

  // Intern the query constants so seeds have concrete Values (a fresh
  // symbol simply matches nothing).
  for (const Term& arg : query.args) {
    if (arg.kind == Term::Kind::kSymbol) db->symbols().Intern(arg.name);
  }

  SEPREC_RETURN_IF_ERROR(MaterializeSupport(program, sep.predicate(), db,
                                            run.Nested(), &result.stats));
  SEPREC_RETURN_IF_ERROR(
      EvaluateSelection(program, sep, query, db, run.ctx(),
                        options.no_cbo ? JoinOrderMode::kTextual
                                       : JoinOrderMode::kCostBased,
                        &result));
  SEPREC_RETURN_IF_ERROR(run.Finish());
  return result;
}

StatusOr<SeparableRunResult> EvaluateWithSeparable(
    const Program& program, const Atom& query, Database* db,
    const FixpointOptions& options) {
  SEPREC_ASSIGN_OR_RETURN(SeparableRecursion sep,
                          AnalyzeSeparable(program, query.predicate));
  return EvaluateWithSeparable(program, sep, query, db, options);
}

// ---- PreparedSeparable ---------------------------------------------------

struct PreparedSeparable::Impl {
  // Own copies: a prepared query outlives the request (and possibly the
  // QueryProcessor) that compiled it.
  Program program;
  SeparableRecursion sep;
  // The rules of the IDB predicates the recursion reads, worked out once;
  // they are still evaluated per request, since the owner empties its
  // overlay after every request.
  Program support;
  std::vector<bool> bound;  // the compiled selection shape
  Database* db = nullptr;
  std::unique_ptr<SchemaRunner> runner;
};

PreparedSeparable::PreparedSeparable(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

PreparedSeparable::~PreparedSeparable() = default;

StatusOr<std::unique_ptr<PreparedSeparable>> PreparedSeparable::Compile(
    const Program& program, const SeparableRecursion& sep, const Atom& query,
    Database* db) {
  if (query.arity() != sep.arity() || query.predicate != sep.predicate()) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(), " does not match recursion '",
               sep.predicate(), "'/", sep.arity()));
  }
  std::vector<bool> bound = BoundPositions(query);
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return InvalidArgumentError(
        StrCat("selection ", query.ToString(),
               " is not full: only full selections compile to a reusable "
               "schema (partial selections re-derive their Lemma 2.1 "
               "branches per request)"));
  }
  auto impl = std::make_unique<Impl>();
  SEPREC_ASSIGN_OR_RETURN(impl->support,
                          SupportProgram(program, sep.predicate()));
  impl->program = program;
  impl->sep = sep;
  impl->bound = std::move(bound);
  impl->db = db;
  // The runner references impl->sep (not the caller's `sep`), which lives
  // exactly as long as the runner does.
  impl->runner =
      std::make_unique<SchemaRunner>(impl->sep, *std::move(anchor), db);
  SEPREC_RETURN_IF_ERROR(impl->runner->Compile());
  return std::unique_ptr<PreparedSeparable>(
      new PreparedSeparable(std::move(impl)));
}

bool PreparedSeparable::Matches(const Atom& query) const {
  if (query.predicate != impl_->sep.predicate() ||
      query.arity() != impl_->sep.arity()) {
    return false;
  }
  return BoundPositions(query) == impl_->bound;
}

ClosureMaintenance PreparedSeparable::MaintenanceFor(
    const Atom& query, const std::string& prefix) const {
  ClosureMaintenance out;
  if (!Matches(query)) return out;  // kNone
  const AnchorInfo& anchor = impl_->runner->anchor();
  Database* db = impl_->db;
  for (const Term& arg : query.args) {
    if (arg.kind == Term::Kind::kSymbol) db->symbols().Intern(arg.name);
  }
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  if (!resolvable) return out;
  for (uint32_t p : anchor.anchor_positions) {
    out.seed_row.push_back(*query_constants[p]);
  }
  out.closure_name = StrCat(prefix, "c");
  out.seed_name = StrCat(prefix, "seed");
  if (!anchor.anchor_class.has_value()) {
    // Dummy equivalence class: seen_1 is exactly {seed_row}, whatever the
    // data says.
    out.kind = ClosureMaintainability::kConstant;
    return out;
  }

  // IDB predicates of the program: a phase-1 body reading one of them (a
  // materialised support predicate) sees derived tuples the closure
  // program below would not maintain.
  std::set<std::string> idb;
  for (const Rule& rule : impl_->program.rules) {
    idb.insert(rule.head.predicate);
  }
  const EquivalenceClass& ec = impl_->sep.classes[*anchor.anchor_class];
  std::set<std::string> bases;
  for (size_t r : ec.rule_indices) {
    for (const Literal& lit : NonRecursiveLits(impl_->sep, r)) {
      // Non-atom literals (comparisons) are data-independent filters.
      if (lit.kind != Literal::Kind::kAtom) continue;
      if (lit.negated || idb.count(lit.atom.predicate)) {
        return out;  // kNone
      }
      bases.insert(lit.atom.predicate);
    }
  }

  // seen_1 as a least fixpoint: seed rule plus one MakePhase1Rule per
  // anchor-class rule with the closure relation as both carry and output.
  const size_t w = anchor.anchor_positions.size();
  Rule seed_rule;
  seed_rule.head.predicate = out.closure_name;
  Atom seed_atom;
  seed_atom.predicate = out.seed_name;
  for (size_t i = 0; i < w; ++i) {
    Term v = Term::Var(StrCat("S", i));
    seed_rule.head.args.push_back(v);
    seed_atom.args.push_back(v);
  }
  seed_rule.body.push_back(Literal::MakeAtom(std::move(seed_atom)));
  out.program.rules.push_back(std::move(seed_rule));
  for (size_t r : ec.rule_indices) {
    out.program.rules.push_back(MakePhase1Rule(
        impl_->sep, anchor, r, out.closure_name, out.closure_name));
  }
  out.base_relations.assign(bases.begin(), bases.end());
  out.kind = ClosureMaintainability::kMaintainable;
  return out;
}

StatusOr<SeparableRunResult> PreparedSeparable::Execute(
    const Atom& query, const FixpointOptions& options,
    const Phase1Closure* reuse, Phase1Closure* capture) {
  if (!Matches(query)) {
    return InvalidArgumentError(
        StrCat("query ", query.ToString(),
               " does not match the prepared selection shape"));
  }
  Database* db = impl_->db;

  SeparableRunResult result;
  result.answer = Answer(query.arity());
  result.stats.algorithm = "separable";
  EngineRun run("separable", options, db, &result.stats);

  // Intern the query constants so seeds have concrete Values (a fresh
  // symbol simply matches nothing).
  for (const Term& arg : query.args) {
    if (arg.kind == Term::Kind::kSymbol) db->symbols().Intern(arg.name);
  }

  SEPREC_RETURN_IF_ERROR(
      EvaluateSupport(impl_->support, db, run.Nested(), &result.stats));
  bool resolvable = false;
  std::vector<std::optional<Value>> query_constants =
      ResolveConstants(query, db->symbols(), &resolvable);
  SEPREC_CHECK(resolvable);  // all constants interned above

  const AnchorInfo& anchor = impl_->runner->anchor();
  std::vector<Value> seed;
  seed.reserve(anchor.anchor_positions.size());
  for (uint32_t p : anchor.anchor_positions) {
    seed.push_back(*query_constants[p]);
  }

  impl_->runner->Run({seed}, run.ctx(), &result.stats, reuse, capture);
  result.schema_runs = 1;
  EmitAnswers(anchor, Row(seed.data(), seed.size()), impl_->runner->seen2(),
              query, query_constants, &result.answer);
  SEPREC_RETURN_IF_ERROR(run.Finish());
  return result;
}

StatusOr<std::string> ExplainSchema(const SeparableRecursion& sep,
                                    const Atom& query) {
  std::vector<bool> bound = BoundPositions(query);
  bool any = false;
  for (bool b : bound) any = any || b;
  if (!any) {
    return InvalidArgumentError("query has no selection constant");
  }
  std::optional<AnchorInfo> anchor = FindAnchor(sep, bound);
  if (!anchor.has_value()) {
    return InvalidArgumentError(
        "partial selection: rewrite with Lemma 2.1 first");
  }

  auto rule_rhs = [](const Rule& rule) {
    std::string out;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i > 0) out += " & ";
      out += rule.body[i].ToString();
    }
    return out;
  };

  std::string text;
  std::string seeds;
  for (uint32_t p : anchor->anchor_positions) {
    if (!seeds.empty()) seeds += ", ";
    seeds += query.args[p].ToString();
  }

  if (anchor->anchor_class.has_value()) {
    text += StrCat("carry_1(", seeds, ");\n");
    text += "seen_1 := carry_1;\n";
    text += "while carry_1 not empty do\n";
    const EquivalenceClass& ec = sep.classes[*anchor->anchor_class];
    std::string update;
    for (size_t r : ec.rule_indices) {
      Rule rule = MakePhase1Rule(sep, *anchor, r, "carry_1", "carry_1");
      if (!update.empty()) update += "\n             \\cup ";
      update += StrCat(rule.head.ToString(), " := ", rule_rhs(rule));
    }
    text += StrCat("  ", update, ";\n");
    text += "  carry_1 := carry_1 - seen_1;\n";
    text += "  seen_1 := seen_1 \\cup carry_1;\nendwhile;\n";
  } else {
    text += StrCat("seen_1(", seeds, ");   % selection constants are in "
                   "t|pers: dummy equivalence class\n");
  }

  for (size_t e = 0; e < sep.recursion.exit_rules.size(); ++e) {
    Rule rule = MakeExitRule(sep, *anchor, e, "seen_1", "carry_2");
    text += StrCat(rule.head.ToString(), " := ", rule_rhs(rule), ";\n");
  }
  text += "seen_2 := carry_2;\n";

  bool any_phase2 = false;
  std::string update2;
  for (size_t r = 0; r < sep.recursion.recursive_rules.size(); ++r) {
    if (anchor->anchor_class.has_value() &&
        sep.class_of_rule[r] == *anchor->anchor_class) {
      continue;
    }
    any_phase2 = true;
    Rule rule = MakePhase2Rule(sep, *anchor, r, "carry_2", "carry_2");
    if (!update2.empty()) update2 += "\n             \\cup ";
    update2 += StrCat(rule.head.ToString(), " := ", rule_rhs(rule));
  }
  if (any_phase2) {
    text += "while carry_2 not empty do\n";
    text += StrCat("  ", update2, ";\n");
    text += "  carry_2 := carry_2 - seen_2;\n";
    text += "  seen_2 := seen_2 \\cup carry_2;\nendwhile;\n";
  }
  std::string ans_args;
  for (uint32_t p : anchor->rest_positions) {
    if (!ans_args.empty()) ans_args += ", ";
    ans_args += sep.recursion.head_vars[p];
  }
  text += StrCat("ans(", ans_args, ") := seen_2(", ans_args, ");\n");
  return text;
}

}  // namespace seprec
