// The static-analysis pass pipeline: pass verdicts, the boundedness
// rewrite's correctness, the non-recursive evaluator's zero-round
// contract, strategy recording through Prepare, and the pipeline-on/off
// guarantee of identical answers at no greater cost (the ablation the
// optimisation is gated on).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/trace.h"
#include "gen/generators.h"
#include "opt/nonrecursive.h"
#include "opt/pass_manager.h"
#include "server/service.h"
#include "storage/database.h"
#include "storage/io.h"
#include "util/string_util.h"

#ifndef SEPREC_TESTDATA_DIR
#error "SEPREC_TESTDATA_DIR must be defined by the build"
#endif

namespace seprec {
namespace {

// t's recursive rule can only re-derive tuples its exit rule already
// produces (the p(X, Y) conjunct subsumes it), so t is bounded at 0; the
// orphan rule is unreachable from the query.
constexpr const char* kBoundedProgram =
    "p(a, b).\n"
    "p(b, c).\n"
    "p(c, d).\n"
    "q(a, b).\n"
    "q(b, c).\n"
    "t(X, Y) :- p(X, Y).\n"
    "t(X, Y) :- q(X, Z) & t(Z, Y) & p(X, Y).\n"
    "orphan(X) :- p(X, Y).\n";

constexpr const char* kNonlinearProgram =
    "e(a, b).\n"
    "e(b, c).\n"
    "path(X, Y) :- e(X, Y).\n"
    "path(X, Y) :- path(X, W) & path(W, Y).\n";

constexpr const char* kTcProgram =
    "edge(a, b).\n"
    "edge(b, c).\n"
    "edge(c, d).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

// The rules of tools/testdata/bounded.dl without its facts: p and q are
// loaded as relations (LoadBoundedInstance), so a plan's cost is its own
// and not fact compilation's.
constexpr const char* kBoundedRules =
    "t(X, Y) :- p(X, Y).\n"
    "t(X, Y) :- q(X, Z) & t(Z, Y) & p(X, Y).\n";

// ~50k random p rows and 5k random q rows over 50k nodes, plus p(a, b):
// t(a, Y) has one answer, and a plan that copies p into t costs ~50k.
void LoadBoundedInstance(Database* db) {
  MakeRandomGraph(db, "p", "n", 50000, 50000, /*seed=*/11);
  MakeRandomGraph(db, "q", "n", 50000, 5000, /*seed=*/12);
  MakeFact(db, "p", {"a", "b"});
}

std::string ReadTestdata(const std::string& file) {
  std::ifstream in(StrCat(SEPREC_TESTDATA_DIR, "/", file));
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string VerdictOf(const PipelineResult& result,
                      const std::string& pass) {
  for (const PassOutcome& outcome : result.outcomes) {
    if (outcome.pass == pass) {
      return std::string(PassVerdictToString(outcome.verdict));
    }
  }
  return "(missing)";
}

// ---- PassManager ---------------------------------------------------------

TEST(PassPipeline, BoundedProgramIsFullyDerecursed) {
  DiagnosticSink sink;
  PipelineResult result = PassManager::Standard({}).Run(
      ParseProgramOrDie(kBoundedProgram), ParseAtomOrDie("t(a, Y)"), &sink);
  EXPECT_EQ(VerdictOf(result, "dead-rules"), "rewritten");  // orphan dies
  EXPECT_EQ(VerdictOf(result, "bounded"), "rewritten");
  EXPECT_TRUE(result.rewritten);
  EXPECT_TRUE(result.derecursed);

  // The rewritten program has no rule for orphan and no recursive t.
  auto info = ProgramInfo::Analyze(result.program);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->Find("orphan"), nullptr);
  ASSERT_NE(info->Find("t"), nullptr);
  EXPECT_FALSE(info->Find("t")->is_recursive);

  bool saw_s201 = false;
  bool saw_s204 = false;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "S201") saw_s201 = true;
    if (d.code == "S204") saw_s204 = true;
    EXPECT_EQ(d.severity, Severity::kNote) << d.code;
  }
  EXPECT_TRUE(saw_s201);
  EXPECT_TRUE(saw_s204);
}

TEST(PassPipeline, NonlinearProgramAbstainsEverywhere) {
  DiagnosticSink sink;
  PipelineResult result = PassManager::Standard({}).Run(
      ParseProgramOrDie(kNonlinearProgram), ParseAtomOrDie("path(a, Y)"),
      &sink);
  EXPECT_EQ(VerdictOf(result, "dead-rules"), "proved");
  EXPECT_EQ(VerdictOf(result, "bounded"), "abstained");
  EXPECT_EQ(VerdictOf(result, "separability"), "abstained");
  EXPECT_FALSE(result.rewritten);
  EXPECT_FALSE(result.derecursed);
  // The separability explainer's S1xx warning is absorbed into the sink.
  EXPECT_GT(sink.CountAtLeast(Severity::kWarning), 0u);
}

TEST(PassPipeline, SeparabilityPassProvesTransitiveClosure) {
  DiagnosticSink sink;
  PipelineResult result = PassManager::Standard({}).Run(
      ParseProgramOrDie(kTcProgram), ParseAtomOrDie("tc(a, Y)"), &sink);
  // tc is genuinely unbounded, so the bounded pass abstains; the
  // separability pass proves Definition 2.4 (S206) without rewriting.
  EXPECT_EQ(VerdictOf(result, "bounded"), "abstained");
  EXPECT_EQ(VerdictOf(result, "separability"), "proved");
  EXPECT_FALSE(result.rewritten);
  bool saw_s206 = false;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == "S206") saw_s206 = true;
  }
  EXPECT_TRUE(saw_s206);
}

TEST(PassPipeline, SummaryStringIsStable) {
  PipelineResult result = PassManager::Standard({}).Run(
      ParseProgramOrDie(kNonlinearProgram), ParseAtomOrDie("path(a, Y)"),
      nullptr);
  EXPECT_EQ(SummarizeOutcomes(result.outcomes),
            "dead-rules=proved,bounded=abstained,separability=abstained");
}

// ---- The program families of the adhoc serve workload --------------------

// One family as an ad hoc client sends it: rules in any order, variables
// renamed, and sometimes a predicate name of its own.
struct AdhocFamily {
  const char* name;
  std::vector<std::string> rules;
  std::string predicate;
  std::string query;  // over `predicate`
  Strategy route;
  const char* summary;
};

std::vector<AdhocFamily> AdhocFamilies() {
  const char* separable =
      "dead-rules=proved,bounded=abstained,separability=proved";
  return {
      {"tc right-linear",
       {"tc(X, Y) :- edge(X, W) & tc(W, Y).", "tc(X, Y) :- edge(X, Y)."},
       "tc", "tc(c, Y)", Strategy::kSeparable, separable},
      {"tc left-linear",
       {"tc(X, Y) :- tc(X, W) & edge(W, Y).", "tc(X, Y) :- edge(X, Y)."},
       "tc", "tc(c, Y)", Strategy::kSeparable, separable},
      {"Example 1.1 buys",
       {"buys(X, Y) :- friend(X, W) & buys(W, Y).",
        "buys(X, Y) :- idol(X, W) & buys(W, Y).",
        "buys(X, Y) :- perfectFor(X, Y)."},
       "buys", "buys(c, Y)", Strategy::kSeparable, separable},
      {"Example 1.2 buys",
       {"buys(X, Y) :- friend(X, W) & buys(W, Y).",
        "buys(X, Y) :- buys(X, W) & cheaper(Y, W).",
        "buys(X, Y) :- perfectFor(X, Y)."},
       "buys", "buys(c, Y)", Strategy::kSeparable, separable},
      {"contains",
       {"contains(X, Y) :- part_of(X, Y).",
        "contains(X, Y) :- part_of(X, W) & contains(W, Y)."},
       "contains", "contains(X, c)", Strategy::kSeparable, separable},
      {"same-generation",
       {"sg(X, Y) :- flat(X, Y).",
        "sg(X, Y) :- up(X, W) & sg(W, V) & down(V, Y)."},
       "sg", "sg(c, Y)", Strategy::kMagic,
       "dead-rules=proved,bounded=abstained,separability=abstained"},
      {"bounded bt",
       {"bt(X, Y) :- edge(X, Y).",
        "bt(X, Y) :- edge(X, W) & bt(W, Y) & edge(X, Y)."},
       "bt", "bt(c, Y)", Strategy::kNonRecursive,
       "dead-rules=proved,bounded=rewritten,separability=abstained"},
  };
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = 0; (pos = s->find(from, pos)) != std::string::npos;
       pos += to.size()) {
    s->replace(pos, from.size(), to);
  }
}

// `variant`'s text of `family`: shuffled rules, the variables X, Y, W, V
// renamed, and on odd variants the predicate renamed in rules and query.
std::pair<std::string, std::string> AdhocVariant(const AdhocFamily& family,
                                                 uint32_t variant) {
  std::mt19937 rng(variant);
  std::vector<std::string> rules = family.rules;
  std::shuffle(rules.begin(), rules.end(), rng);
  std::vector<std::string> names = {"A", "B", "C", "D", "F", "G", "H", "K"};
  std::shuffle(names.begin(), names.end(), rng);
  std::string predicate = family.predicate;
  std::string query = family.query;
  if (variant % 2 == 1) {
    predicate += StrCat("_r", variant);
    ReplaceAll(&query, family.predicate + "(", predicate + "(");
  }
  std::string program;
  for (std::string rule : rules) {
    // Through placeholders, so a new name never meets an old one.
    const char* old_names[] = {"X", "Y", "W", "V"};
    for (size_t v = 0; v < 4; ++v) {
      ReplaceAll(&rule, old_names[v], StrCat("#", v));
    }
    for (size_t v = 0; v < 4; ++v) {
      ReplaceAll(&rule, StrCat("#", v), names[v]);
    }
    ReplaceAll(&rule, family.predicate + "(", predicate + "(");
    program += rule + "\n";
  }
  return {program, query};
}

// Each family's pass verdicts, route and boundedness note, however its
// text is shuffled and renamed: a flipped containment verdict would
// change the plan every such request is served with.
TEST(PassPipeline, AdhocFamiliesKeepTheirVerdicts) {
  for (const AdhocFamily& family : AdhocFamilies()) {
    for (uint32_t variant = 0; variant < 4; ++variant) {
      auto [program, query] = AdhocVariant(family, variant);
      SCOPED_TRACE(StrCat(family.name, ":\n", program, "?- ", query));
      auto qp = QueryProcessor::Create(ParseProgramOrDie(program));
      ASSERT_TRUE(qp.ok()) << qp.status().ToString();
      auto report = qp->AnalyzeQuery(ParseAtomOrDie(query));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->strategy, family.route);
      EXPECT_EQ(report->Summary(), family.summary);
      std::string bounded_note;
      for (const Diagnostic& d : report->diagnostics) {
        if (d.code == "S201" || d.code == "S202") {
          EXPECT_TRUE(bounded_note.empty()) << "two boundedness notes";
          bounded_note = StrCat(d.code, ": ", d.message);
        }
      }
      std::string predicate = query.substr(0, query.find('('));
      if (family.route == Strategy::kNonRecursive) {
        EXPECT_EQ(bounded_note,
                  StrCat("S201: bounded recursion: '", predicate,
                         "' reaches its fixpoint after 1 round(s) on every "
                         "database; 2 rule(s) rewritten to a non-recursive "
                         "union of 1 conjunctive quer(ies), verified by "
                         "containment"));
      } else {
        EXPECT_EQ(bounded_note,
                  StrCat("S202: boundedness not established (checked "
                         "depth <= 3): '", predicate,
                         "': not bounded up to depth 3"));
      }
    }
  }
}

// ---- EvaluateNonRecursive ------------------------------------------------

TEST(NonRecursiveEval, MatchesSemiNaiveOnRecursionFreeProgram) {
  Program program = ParseProgramOrDie(
      "e(a, b).\n"
      "e(b, c).\n"
      "f(c, d).\n"
      "one(X, Y) :- e(X, Y).\n"
      "two(X, Y) :- one(X, Z) & f(Z, Y).\n"
      "both(X, Y) :- one(X, Y).\n"
      "both(X, Y) :- two(X, Y).\n");
  Database direct;
  ASSERT_TRUE(EvaluateNonRecursive(program, &direct).ok());
  Database fixpoint;
  ASSERT_TRUE(EvaluateSemiNaive(program, &fixpoint).ok());
  for (const char* pred : {"one", "two", "both"}) {
    const Relation* a = direct.Find(pred);
    const Relation* b = fixpoint.Find(pred);
    ASSERT_NE(a, nullptr) << pred;
    ASSERT_NE(b, nullptr) << pred;
    EXPECT_EQ(a->DebugString(direct.symbols()),
              b->DebugString(fixpoint.symbols()))
        << pred;
  }
}

TEST(NonRecursiveEval, TraceReportsZeroIterations) {
  Program program = ParseProgramOrDie(
      "e(a, b).\n"
      "one(X, Y) :- e(X, Y).\n");
  CollectingTraceSink sink;
  FixpointOptions options;
  options.trace = &sink;
  Database db;
  ASSERT_TRUE(EvaluateNonRecursive(program, &db, options).ok());
  bool saw_finish = false;
  for (const TraceEvent& e : sink.Events()) {
    if (e.kind == TraceEventKind::kEngineFinish) {
      saw_finish = true;
      EXPECT_EQ(e.engine, "nonrecursive");
      EXPECT_EQ(e.iterations, 0u);  // the headline: no fixpoint rounds
    }
  }
  EXPECT_TRUE(saw_finish);
}

TEST(NonRecursiveEval, RefusesRecursionAndAggregates) {
  Database db;
  Status recursive =
      EvaluateNonRecursive(ParseProgramOrDie(kTcProgram), &db);
  EXPECT_EQ(recursive.code(), StatusCode::kFailedPrecondition);
  Status aggregate = EvaluateNonRecursive(
      ParseProgramOrDie("e(a, b).\nn(count(Y)) :- e(X, Y)."), &db);
  EXPECT_EQ(aggregate.code(), StatusCode::kFailedPrecondition);
}

// ---- Prepare integration -------------------------------------------------

TEST(PreparePipeline, BoundedQueryCompilesToNonRecursivePlan) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(kBoundedProgram));
  ASSERT_TRUE(qp.ok());
  Database db;
  auto prepared = qp->Prepare(ParseAtomOrDie("t(a, Y)"), &db);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->strategy(), Strategy::kNonRecursive);
  EXPECT_TRUE(prepared->pipeline_rewrote());
  ASSERT_NE(prepared->pass_report(), nullptr);
  EXPECT_EQ(prepared->pass_report()->strategy, Strategy::kNonRecursive);
  EXPECT_TRUE(prepared->pass_report()->derecursed);
  EXPECT_EQ(prepared->pass_report()->Summary(),
            "dead-rules=rewritten,bounded=rewritten,separability=abstained");

  CollectingTraceSink sink;
  FixpointOptions options;
  options.trace = &sink;
  auto result = prepared->Execute(ParseAtomOrDie("t(a, Y)"), &db, options,
                                  nullptr, nullptr, /*commit=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->strategy, Strategy::kNonRecursive);
  EXPECT_EQ(result->answer.ToStrings(db.symbols()),
            (std::vector<std::string>{"(a, b)"}));
  bool saw_zero_round_finish = false;
  for (const TraceEvent& e : sink.Events()) {
    if (e.kind == TraceEventKind::kEngineFinish &&
        e.engine == "nonrecursive") {
      saw_zero_round_finish = true;
      EXPECT_EQ(e.iterations, 0u);
    }
  }
  EXPECT_TRUE(saw_zero_round_finish);
}

// The de-recursed plan pushes t(a, Y)'s constant into the union, so it
// builds O(answer) tuples (Definition 4.2), not a copy of p. The
// pipeline-off comparison below holds its answer to Separable's.
TEST(PreparePipeline, DerecursedPlanBuildsOnlyTheAnswer) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(kBoundedRules));
  ASSERT_TRUE(qp.ok());
  const Atom query = ParseAtomOrDie("t(a, Y)");

  Database db;
  LoadBoundedInstance(&db);
  auto prepared = qp->Prepare(query, &db);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->strategy(), Strategy::kNonRecursive);
  auto result = prepared->Execute(query, &db, {}, nullptr, nullptr,
                                  /*commit=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->strategy, Strategy::kNonRecursive);
  EXPECT_EQ(result->answer.ToStrings(db.symbols()),
            (std::vector<std::string>{"(a, b)"}));
  EXPECT_EQ(result->stats.tuples_inserted, result->answer.size());
  EXPECT_LE(result->stats.max_relation_size, result->answer.size());
}

// One program of the pipeline-off comparison: its source (queries
// included) and the TSVs or generated instance it runs over.
struct PipelineCase {
  std::string name;
  std::string source;
  std::vector<std::pair<std::string, std::string>> tsvs;  // relation, file
  void (*load)(Database*);
};

std::vector<PipelineCase> PipelineCases() {
  return {
      {"inline bounded",
       StrCat(kBoundedProgram, "?- t(a, Y).\n?- t(X, Y).\n?- t(X, d).\n"),
       {},
       nullptr},
      {"bounded.dl", ReadTestdata("bounded.dl"), {}, nullptr},
      {"lint_demo.dl", ReadTestdata("lint_demo.dl"), {}, nullptr},
      {"nonlinear.dl", ReadTestdata("nonlinear.dl"), {}, nullptr},
      {"social.dl", ReadTestdata("social.dl"), {}, nullptr},
      {"tc.dl", ReadTestdata("tc.dl"), {{"edge", "edges.tsv"}}, nullptr},
      {"wide.dl",
       ReadTestdata("wide.dl"),
       {{"big_a", "big_a.tsv"}, {"big_b", "big_b.tsv"}, {"link", "link.tsv"}},
       nullptr},
      {"50k bounded instance",
       StrCat(kBoundedRules, "?- t(a, Y).\n"),
       {},
       LoadBoundedInstance},
  };
}

// The pipeline never changes an answer, and never costs more: the
// optimized plan inserts at most as many tuples as the plan the service
// runs with "optimize": false.
TEST(PreparePipeline, ResultsAreBitIdenticalWithPipelineOff) {
  for (const PipelineCase& c : PipelineCases()) {
    auto unit = ParseUnit(c.source);
    ASSERT_TRUE(unit.ok()) << c.name << ": " << unit.status().ToString();
    ASSERT_FALSE(unit->queries.empty()) << c.name;
    auto qp = QueryProcessor::Create(unit->program);
    ASSERT_TRUE(qp.ok()) << c.name;
    auto load = [&c](Database* db) {
      for (const auto& [relation, file] : c.tsvs) {
        ASSERT_TRUE(LoadRelationTsvFile(
                        db, relation,
                        StrCat(SEPREC_TESTDATA_DIR, "/", file))
                        .ok())
            << file;
      }
      if (c.load != nullptr) c.load(db);
    };
    for (const Atom& query : unit->queries) {
      const std::string label = StrCat(c.name, ": ", query.ToString());
      Database db_on;
      load(&db_on);
      auto on = qp->Prepare(query, &db_on);
      ASSERT_TRUE(on.ok()) << label;
      auto result_on = on->Execute(query, &db_on, {}, nullptr, nullptr,
                                   /*commit=*/false);
      ASSERT_TRUE(result_on.ok()) << label;

      Database db_off;
      load(&db_off);
      auto off = qp->Prepare(query, &db_off, Strategy::kAuto,
                             /*run_pipeline=*/false);
      ASSERT_TRUE(off.ok()) << label;
      EXPECT_EQ(off->pass_report(), nullptr);
      auto result_off = off->Execute(query, &db_off, {}, nullptr, nullptr,
                                     /*commit=*/false);
      ASSERT_TRUE(result_off.ok()) << label;

      auto rows_on = result_on->answer.ToStrings(db_on.symbols());
      auto rows_off = result_off->answer.ToStrings(db_off.symbols());
      std::sort(rows_on.begin(), rows_on.end());
      std::sort(rows_off.begin(), rows_off.end());
      EXPECT_EQ(rows_on, rows_off) << label;
      EXPECT_LE(result_on->stats.tuples_inserted,
                result_off->stats.tuples_inserted)
          << label << " via " << StrategyToString(result_on->strategy);
    }
  }
}

TEST(PreparePipeline, ForcedStrategySkipsPipeline) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(kBoundedProgram));
  ASSERT_TRUE(qp.ok());
  Database db;
  auto prepared =
      qp->Prepare(ParseAtomOrDie("t(a, Y)"), &db, Strategy::kSemiNaive);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->pass_report(), nullptr);
  EXPECT_FALSE(prepared->pipeline_rewrote());
  EXPECT_EQ(prepared->strategy(), Strategy::kSemiNaive);
}

TEST(PreparePipeline, AnalyzeQueryReportsWithoutDatabase) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(kTcProgram));
  ASSERT_TRUE(qp.ok());
  auto report = qp->AnalyzeQuery(ParseAtomOrDie("tc(a, Y)"));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->strategy, Strategy::kSeparable);
  EXPECT_FALSE(report->derecursed);
  bool saw_s200 = false;
  for (const Diagnostic& d : report->diagnostics) {
    if (d.code == "S200") saw_s200 = true;
  }
  EXPECT_TRUE(saw_s200);
}

TEST(PreparePipeline, UnboundedRecursionStillUsesFixpointStrategies) {
  auto qp = QueryProcessor::Create(ParseProgramOrDie(kTcProgram));
  ASSERT_TRUE(qp.ok());
  Database db;
  auto prepared = qp->Prepare(ParseAtomOrDie("tc(a, Y)"), &db);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->strategy(), Strategy::kSeparable);
  EXPECT_FALSE(prepared->pipeline_rewrote());
  ASSERT_NE(prepared->pass_report(), nullptr);
  auto result = prepared->Execute(ParseAtomOrDie("tc(a, Y)"), &db, {},
                                  nullptr, nullptr, /*commit=*/false);
  ASSERT_TRUE(result.ok());
  auto rows = result->answer.ToStrings(db.symbols());
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows,
            (std::vector<std::string>{"(a, b)", "(a, c)", "(a, d)"}));
}

// ---- QueryService integration -------------------------------------------

// Y is the target of `Y is Z + 1`, so the pushed selection must leave it a
// variable; the final selection then filters the general rule's output.
TEST(ServicePipeline, ForcedNonRecursiveLeavesAssignedHeadVariables) {
  Database db;
  QueryService service(&db);
  ServiceRequest req;
  req.program =
      "p(a, 1).\n"
      "p(b, 4).\n"
      "t(X, Y) :- p(X, Z) & Y is Z + 1.\n";
  req.query = "t(X, 5)";
  req.strategy = Strategy::kNonRecursive;
  auto outcomes = service.Execute(req);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 1u);
  EXPECT_EQ((*outcomes)[0].result.strategy, Strategy::kNonRecursive);
  EXPECT_EQ((*outcomes)[0].tuples, (std::vector<std::string>{"(b, 5)"}));

  // So does an aggregated one; the single pass then refuses the
  // aggregate instead of the substitution aborting the process.
  req.program = "e(a, b).\nn(X, count(Y)) :- e(X, Y).\n";
  req.query = "n(a, 1)";
  auto refused = service.Execute(req);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServicePipeline, RecordsPassSummaryAndEmitsPassEvents) {
  CollectingTraceSink sink;
  ServiceOptions options;
  options.trace = &sink;
  Database db;
  QueryService service(&db, options);

  ServiceRequest req;
  req.program = kBoundedProgram;
  req.query = "t(a, Y)";
  auto outcomes = service.Execute(req);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 1u);
  EXPECT_EQ((*outcomes)[0].result.strategy, Strategy::kNonRecursive);
  EXPECT_EQ((*outcomes)[0].tuples, (std::vector<std::string>{"(a, b)"}));
  EXPECT_EQ((*outcomes)[0].pass_summary,
            "dead-rules=rewritten,bounded=rewritten,separability=abstained");

  size_t pass_events = 0;
  bool saw_strategy = false;
  for (const TraceEvent& e : sink.Events()) {
    if (e.kind != TraceEventKind::kPass) continue;
    ++pass_events;
    if (e.phase == "strategy") {
      saw_strategy = true;
      EXPECT_EQ(e.cause, "nonrecursive");
    }
  }
  EXPECT_EQ(pass_events, 4u);  // three passes + the strategy record
  EXPECT_TRUE(saw_strategy);

  // A plan-cache hit re-reports the recorded summary without re-running
  // the pipeline (no new pass events).
  auto again = service.Execute(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)[0].plan_cache_hit);
  EXPECT_EQ((*again)[0].pass_summary, (*outcomes)[0].pass_summary);
  size_t pass_events_after = 0;
  for (const TraceEvent& e : sink.Events()) {
    if (e.kind == TraceEventKind::kPass) ++pass_events_after;
  }
  EXPECT_EQ(pass_events_after, pass_events);
}

TEST(ServicePipeline, OptimizeOffIsBitIdenticalAndCachedSeparately) {
  Database db;
  QueryService service(&db);
  ServiceRequest req;
  req.program = kBoundedProgram;
  req.query = "t(X, Y)";

  auto optimized = service.Execute(req);
  ASSERT_TRUE(optimized.ok());
  EXPECT_FALSE((*optimized)[0].plan_cache_hit);

  req.optimize = false;
  auto control = service.Execute(req);
  ASSERT_TRUE(control.ok());
  // Distinct plan-cache entry: the control run compiles its own plan.
  EXPECT_FALSE((*control)[0].plan_cache_hit);
  EXPECT_TRUE((*control)[0].pass_summary.empty());
  EXPECT_EQ((*control)[0].tuples, (*optimized)[0].tuples);

  auto control_again = service.Execute(req);
  ASSERT_TRUE(control_again.ok());
  EXPECT_TRUE((*control_again)[0].plan_cache_hit);
}

}  // namespace
}  // namespace seprec
