// Evaluation tracing: every engine feeds the TraceSink with typed events,
// JsonTraceSink serialises them as JSON lines, and the per-rule, per-round
// and per-engine counts the trace reports agree with each other.
#include "eval/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "counting/engine.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/incremental.h"
#include "eval/qsq.h"
#include "gen/generators.h"
#include "gen/workloads.h"
#include "magic/engine.h"
#include "opt/nonrecursive.h"
#include "separable/engine.h"

namespace seprec {
namespace {

FixpointOptions TracedOptions(TraceSink* sink) {
  FixpointOptions options;
  options.trace = sink;
  return options;
}

size_t CountKind(const std::vector<TraceEvent>& events, TraceEventKind kind,
                 const std::string& engine = "") {
  size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == kind && (engine.empty() || e.engine == engine)) ++n;
  }
  return n;
}

const TraceEvent* FindKind(const std::vector<TraceEvent>& events,
                           TraceEventKind kind, const std::string& engine) {
  for (const TraceEvent& e : events) {
    if (e.kind == kind && e.engine == engine) return &e;
  }
  return nullptr;
}

// ---- JSON-lines schema ----------------------------------------------------

std::vector<std::string> TracedJsonLines() {
  std::ostringstream out;
  JsonTraceSink sink(&out);
  Database db;
  MakeChain(&db, "edge", "v", 6);
  EvalStats stats;
  SEPREC_CHECK(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                 TracedOptions(&sink), &stats)
                   .ok());
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(TraceJson, EveryLineCarriesTheEnvelope) {
  std::vector<std::string> lines = TracedJsonLines();
  ASSERT_GE(lines.size(), 3u);  // engine_start, rounds, engine_finish
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    // Envelope: {"v":<schema>,"seq":<i>,"t":<seconds>,"ev":"...
    std::string prefix = "{\"v\":" +
                         std::to_string(JsonTraceSink::kSchemaVersion) +
                         ",\"seq\":" + std::to_string(i) + ",\"t\":";
    EXPECT_EQ(l.rfind(prefix, 0), 0u) << l;
    EXPECT_NE(l.find("\"ev\":\""), std::string::npos) << l;
    EXPECT_EQ(l.back(), '}') << l;
  }
}

TEST(TraceJson, GoldenEventShapes) {
  std::vector<std::string> lines = TracedJsonLines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find(
                "\"ev\":\"engine_start\",\"engine\":\"seminaive\""),
            std::string::npos)
      << lines.front();

  const std::string& last = lines.back();
  EXPECT_NE(last.find("\"ev\":\"engine_finish\",\"engine\":\"seminaive\","
                      "\"seconds\":"),
            std::string::npos)
      << last;
  for (const char* key :
       {"\"iterations\":", "\"tuples\":", "\"polls\":",
        "\"insert_attempts\":", "\"insert_new\":"}) {
    EXPECT_NE(last.find(key), std::string::npos) << last;
  }

  bool saw_round_end = false;
  bool saw_rule = false;
  for (const std::string& l : lines) {
    if (l.find("\"ev\":\"round_end\"") != std::string::npos) {
      saw_round_end = true;
      for (const char* key : {"\"phase\":", "\"round\":", "\"emitted\":",
                              "\"inserted\":", "\"delta\":"}) {
        EXPECT_NE(l.find(key), std::string::npos) << l;
      }
    }
    if (l.find("\"ev\":\"rule\"") != std::string::npos) {
      saw_rule = true;
      EXPECT_NE(l.find("\"rule\":\""), std::string::npos) << l;
      EXPECT_NE(l.find("\"probes\":"), std::string::npos) << l;
    }
  }
  EXPECT_TRUE(saw_round_end);
  EXPECT_TRUE(saw_rule);
}

TEST(TraceJson, EscapesControlAndQuoteCharacters) {
  std::ostringstream out;
  JsonTraceSink sink(&out);
  TraceEvent e;
  e.kind = TraceEventKind::kNote;
  e.detail = "a\"b\\c\nd\te\x01" "f";  // \x01 split so 'f' is a literal
  sink.Emit(e);
  std::string line = out.str();
  EXPECT_NE(line.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos)
      << line;
}

// ---- Per-engine event coverage -------------------------------------------

void ExpectEngineEvents(const std::vector<TraceEvent>& events,
                        const std::string& engine,
                        const std::string& round_engine,
                        const std::string& phase_prefix) {
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineStart, engine), 1u)
      << engine;
  ASSERT_EQ(CountKind(events, TraceEventKind::kEngineFinish, engine), 1u)
      << engine;
  const TraceEvent* finish =
      FindKind(events, TraceEventKind::kEngineFinish, engine);
  EXPECT_GT(finish->seconds, 0.0) << engine;
  EXPECT_GT(finish->insert_attempts, 0u) << engine;

  bool saw_round = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd || e.engine != round_engine) {
      continue;
    }
    if (e.phase.rfind(phase_prefix, 0) == 0) saw_round = true;
  }
  EXPECT_TRUE(saw_round) << engine << ": no round_end with engine '"
                         << round_engine << "' and phase prefix '"
                         << phase_prefix << "'";
}

TEST(TraceCoverage, SemiNaiveEmitsRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                TracedOptions(&sink))
                  .ok());
  ExpectEngineEvents(sink.Events(), "seminaive", "seminaive", "stratum");
}

TEST(TraceCoverage, RuleEventsAccountForEveryRound) {
  // Every head tuple a round emits is attributed to some rule event, and
  // the rounds' new tuples add up to the engine's total.
  CollectingTraceSink sink;
  Database db;
  MakeRandomGraph(&db, "edge", "v", 25, 80, 11);
  ASSERT_TRUE(EvaluateSemiNaive(TransitiveClosureProgram(), &db,
                                TracedOptions(&sink))
                  .ok());
  uint64_t round_emitted = 0;
  uint64_t round_inserted = 0;
  uint64_t rule_emitted = 0;
  uint64_t finish_tuples = 0;
  size_t rounds = 0;
  for (const TraceEvent& e : sink.Events()) {
    if (e.kind == TraceEventKind::kRoundEnd) {
      round_emitted += e.emitted;
      round_inserted += e.inserted;
      ++rounds;
    } else if (e.kind == TraceEventKind::kRule) {
      rule_emitted += e.emitted;
    } else if (e.kind == TraceEventKind::kEngineFinish) {
      finish_tuples = e.tuples;
    }
  }
  EXPECT_GT(rounds, 1u);
  EXPECT_GT(round_emitted, 0u);
  EXPECT_EQ(rule_emitted, round_emitted);
  EXPECT_EQ(round_inserted, finish_tuples);
  EXPECT_EQ(finish_tuples, db.Find("tc")->size());
}

TEST(TraceCoverage, SeparableEmitsPhaseRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeExample12Data(&db, 12);
  auto result = EvaluateWithSeparable(Example12Program(),
                                      ParseAtomOrDie("buys(a0, Y)"), &db,
                                      TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<TraceEvent> events = sink.Events();
  ExpectEngineEvents(events, "separable", "separable", "");
  // Both phases of the Figure-2 schema must appear.
  bool saw_phase1 = false;
  bool saw_phase2 = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd) continue;
    if (e.phase == "phase1") saw_phase1 = true;
    if (e.phase == "phase2") saw_phase2 = true;
  }
  EXPECT_TRUE(saw_phase1);
  EXPECT_TRUE(saw_phase2);
}

TEST(TraceCoverage, MagicEmitsPrefixedRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithMagic(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v0, Y)"), &db,
                                  TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Magic wraps a semi-naive run over the rewritten program: rounds are
  // emitted by the inner engine under the "magic/" phase prefix.
  ExpectEngineEvents(sink.Events(), "magic", "seminaive", "magic/");
  EXPECT_GT(result->stats.seconds, 0.0);
}

TEST(TraceCoverage, CountingEmitsPrefixedRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithCounting(TransitiveClosureProgram(),
                                     ParseAtomOrDie("tc(v0, Y)"), &db,
                                     TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEngineEvents(sink.Events(), "counting", "seminaive", "counting/");
  EXPECT_GT(result->stats.seconds, 0.0);
}

TEST(TraceCoverage, QsqrEmitsPassRounds) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 8);
  auto result = EvaluateWithQsqr(TransitiveClosureProgram(),
                                 ParseAtomOrDie("tc(v0, Y)"), &db,
                                 TracedOptions(&sink));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEngineEvents(sink.Events(), "qsqr", "qsqr", "pass");
}

TEST(TraceCoverage, IncrementalEmitsUpdatePhases) {
  CollectingTraceSink sink;
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->set_trace(&sink);
  ASSERT_TRUE(engine->Initialize().ok());
  ASSERT_TRUE(engine->AddFact("edge", {"a", "b"}).ok());
  ASSERT_TRUE(engine->AddFact("edge", {"b", "c"}).ok());
  ASSERT_TRUE(engine->RemoveFact("edge", {"a", "b"}).ok());

  std::vector<TraceEvent> events = sink.Events();
  // Initialize runs the inner fixpoint under the "init/" prefix; each
  // update wraps its rounds in incremental engine_start/engine_finish.
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineStart, "incremental"),
            3u);
  EXPECT_EQ(CountKind(events, TraceEventKind::kEngineFinish, "incremental"),
            3u);
  bool saw_insert = false;
  bool saw_overdelete = false;
  bool saw_rederive = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kRoundEnd || e.engine != "incremental") {
      continue;
    }
    if (e.phase == "insert") saw_insert = true;
    if (e.phase == "overdelete") saw_overdelete = true;
    if (e.phase == "rederive") saw_rederive = true;
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_overdelete);
  EXPECT_TRUE(saw_rederive);
}

// ---- Failing engines still finish ------------------------------------------
//
// Each call below errors after its engine started: a relation it creates
// already exists with another arity. The engine, and every engine nested in
// it, must still emit one engine_finish per engine_start.

void ExpectBalanced(const std::vector<TraceEvent>& events,
                    const std::string& engine) {
  std::map<std::string, std::pair<size_t, size_t>> counts;  // start, finish
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kEngineStart) ++counts[e.engine].first;
    if (e.kind == TraceEventKind::kEngineFinish) ++counts[e.engine].second;
  }
  EXPECT_EQ(counts[engine].first, 1u) << engine;
  for (const auto& [name, count] : counts) {
    EXPECT_EQ(count.first, count.second)
        << name << " started " << count.first << "x, finished "
        << count.second << "x";
  }
}

// q's stratum fails once the strata of p and r ran.
Program IdbClashProgram() {
  return ParseProgramOrDie(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- e(X, Z), p(Z, Y).\n"
      "r(X, Y) :- p(X, Y).\n"
      "q(X, Y) :- r(X, Y).");
}

void LoadIdbClash(Database* db) {
  SEPREC_CHECK(db->AddFact("e", {"a", "b"}).ok());
  SEPREC_CHECK(db->AddFact("q", {"a", "b", "c"}).ok());
}

// t is separable; its support predicate u clashes with a 3-column u. (The
// compiled schema reads s, never u, so PreparedSeparable compiles.)
Program SupportClashProgram() {
  return ParseProgramOrDie(
      "u(X, Y) :- b(X, Y).\n"
      "s(X, Y) :- u(X, Y).\n"
      "t(X, Y) :- s(X, Z), t(Z, Y).\n"
      "t(X, Y) :- t0(X, Y).");
}

void LoadSupportClash(Database* db) {
  SEPREC_CHECK(db->AddFact("b", {"a", "b"}).ok());
  SEPREC_CHECK(db->AddFact("t0", {"b", "c"}).ok());
  SEPREC_CHECK(db->AddFact("u", {"x", "y", "z"}).ok());
}

TEST(TraceFailure, SemiNaiveFinishes) {
  CollectingTraceSink sink;
  Database db;
  LoadIdbClash(&db);
  Status status = EvaluateSemiNaive(IdbClashProgram(), &db,
                                    TracedOptions(&sink));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectBalanced(sink.Events(), "seminaive");
}

TEST(TraceFailure, NaiveFinishes) {
  CollectingTraceSink sink;
  Database db;
  LoadIdbClash(&db);
  Status status =
      EvaluateNaive(IdbClashProgram(), &db, TracedOptions(&sink));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectBalanced(sink.Events(), "naive");
}

TEST(TraceFailure, SeparableFinishes) {
  CollectingTraceSink sink;
  Database db;
  LoadSupportClash(&db);
  auto result = EvaluateWithSeparable(SupportClashProgram(),
                                      ParseAtomOrDie("t(a, Y)"), &db,
                                      TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectBalanced(sink.Events(), "separable");
}

TEST(TraceFailure, PreparedSeparableFinishes) {
  CollectingTraceSink sink;
  Database db;
  LoadSupportClash(&db);
  Program program = SupportClashProgram();
  Atom query = ParseAtomOrDie("t(a, Y)");
  auto sep = AnalyzeSeparable(program, "t");
  ASSERT_TRUE(sep.ok()) << sep.status().ToString();
  auto prepared = PreparedSeparable::Compile(program, *sep, query, &db);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto result = (*prepared)->Execute(query, TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectBalanced(sink.Events(), "separable");
}

TEST(TraceFailure, MagicFinishes) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 4);
  SEPREC_CHECK(db.AddFact("tc_bf", {"x", "y", "z"}).ok());
  auto result = EvaluateWithMagic(TransitiveClosureProgram(),
                                  ParseAtomOrDie("tc(v0, Y)"), &db,
                                  TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectBalanced(sink.Events(), "magic");
}

TEST(TraceFailure, CountingFinishes) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 4);
  SEPREC_CHECK(db.AddFact("count_tc", {"x"}).ok());
  auto result = EvaluateWithCounting(TransitiveClosureProgram(),
                                     ParseAtomOrDie("tc(v0, Y)"), &db,
                                     TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectBalanced(sink.Events(), "counting");
}

TEST(TraceFailure, QsqrFinishes) {
  CollectingTraceSink sink;
  Database db;
  MakeChain(&db, "edge", "v", 4);
  SEPREC_CHECK(db.AddFact("$qsq_in_tc_bf", {"x", "y", "z"}).ok());
  auto result = EvaluateWithQsqr(TransitiveClosureProgram(),
                                 ParseAtomOrDie("tc(v0, Y)"), &db,
                                 TracedOptions(&sink));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  ExpectBalanced(sink.Events(), "qsqr");
}

TEST(TraceFailure, NonRecursiveFinishes) {
  CollectingTraceSink sink;
  Database db;
  SEPREC_CHECK(db.AddFact("e", {"a", "b"}).ok());
  SEPREC_CHECK(db.AddFact("q", {"a", "b", "c"}).ok());
  Status status = EvaluateNonRecursive(
      ParseProgramOrDie("r(X, Y) :- e(X, Y).\nq(X, Y) :- r(X, Y)."), &db,
      TracedOptions(&sink));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectBalanced(sink.Events(), "nonrecursive");
}

TEST(TraceFailure, IncrementalFinishes) {
  CollectingTraceSink sink;
  Database db;
  auto engine = IncrementalEngine::Create(TransitiveClosureProgram(), &db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Initialize().ok());
  engine->set_trace(&sink);
  // The row's arity does not match edge/2.
  Status status = engine->AddFacts("edge", {{db.symbols().Intern("a")}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectBalanced(sink.Events(), "incremental");
}

// ---- EvalStats breakdowns -------------------------------------------------

TEST(TraceStats, PerRoundAndPerRuleBreakdownsFill) {
  Database db;
  MakeChain(&db, "edge", "v", 8);
  EvalStats stats;
  ASSERT_TRUE(
      EvaluateSemiNaive(TransitiveClosureProgram(), &db, {}, &stats).ok());
  ASSERT_FALSE(stats.rounds.empty());
  ASSERT_FALSE(stats.rule_stats.empty());
  size_t fired = 0;
  for (const auto& [rule, rs] : stats.rule_stats) {
    fired += rs.fired;
    EXPECT_FALSE(rule.empty());
  }
  EXPECT_GT(fired, 0u);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("rounds:"), std::string::npos) << text;
  EXPECT_NE(text.find("rules:"), std::string::npos) << text;
}

}  // namespace
}  // namespace seprec
