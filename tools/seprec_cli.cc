// seprec_cli — command-line front end for the separable-recursion query
// compiler.
//
//   seprec_cli run <program.dl> [--data REL=FILE.tsv]... [--strategy S]
//                  [--stats] [--timeout-ms N] [--max-tuples N]
//                  [--max-bytes N] [--trace FILE] [--no-cbo]
//       Load the program, load any TSV data files, execute every query in
//       the file (?- q. or q?), print answers (and stats with --stats).
//       The --timeout-ms / --max-tuples / --max-bytes limits govern each
//       query; a query stopped by a limit prints the sound partial answer
//       with a "%% partial result (...)" banner and the process exits 3.
//       Each query evaluates on one thread. --trace FILE appends one JSON
//       object per line to FILE describing the evaluation (engine, round,
//       rule, merge, and governor events; see DESIGN.md "Evaluation
//       tracing").
//
//   seprec_cli check <program.dl>
//       Static report: predicates, strata, recursion/linearity, and for
//       each recursive predicate whether it is separable (with classes)
//       or why not.
//
//   seprec_cli explain <program.dl> "<query>"
//       Show the strategy the compiler picks and its artifact (Figure-2
//       schema / rewritten program / rule list).
//
//   seprec_cli why <program.dl> "<fact>" [--data REL=FILE.tsv]...
//       Materialise the program and print a derivation tree for the fact.
//
//   seprec_cli lint <program.dl> [--format text|json|sarif] [--relaxed]
//       Run every static diagnostic pass (parse, safety, stratification,
//       style lints, and the Definition 2.4 separability explainer) and
//       report findings with source spans. --relaxed forwards the Section 5
//       condition-4 relaxation to the separability passes. Exit codes:
//       0 = no warnings or errors (notes allowed), 1 = findings,
//       2 = usage error or unreadable file.
//
//   seprec_cli analyze <program.dl> [--format text|json|sarif] [--relaxed]
//                      [--query "<atom>"] [--max-bound N]
//                      [--explain-plan] [--data REL=FILE.tsv]...
//       Run the compiler's static-analysis pass pipeline (dead-rule
//       elimination, boundedness detection, separability detection) for
//       each query and report every verdict plus the recorded strategy
//       selection as S2xx diagnostics. Same exit contract as lint.
//       --explain-plan additionally prepares each query (loading any
//       --data TSVs first) and dumps the cost-based join order chosen for
//       every rule: one "mode= cost= est_rows= order=[...]" line per rule
//       (one JSON object per line under --format json). The CI plan-golden
//       step diffs these dumps against tools/testdata/golden/.
//
//   seprec_cli serve <socket> [--data REL=FILE.tsv]... [--trace FILE]
//                    [--max-prepared N] [--max-closures N]
//                    [--data-dir DIR] [--fsync always|batch|off]
//                    [--recover strict|tolerant] [--checkpoint-bytes N]
//       Start the query service on a Unix-domain socket speaking the
//       JSON-lines protocol (see src/server/server.h). Runs until a client
//       sends {"op":"shutdown"} or the process receives SIGINT/SIGTERM.
//       Each session has its own thread, and each request evaluates on
//       its session's thread.
//       --data-dir opens (or initialises) a crash-safe data directory:
//       the database is recovered from its snapshot + WAL before serving,
//       every load op is write-ahead logged, and {"op":"checkpoint"}
//       (or the WAL passing --checkpoint-bytes, default 64 MiB) snapshots
//       and truncates the log. --fsync picks the WAL durability policy
//       (default always: an acknowledged load survives kill -9).
//       --recover tolerant truncates a corrupt WAL at the last valid
//       record instead of refusing to start; either way the recovery
//       report is printed to stderr. An unrecoverable data directory
//       exits 4. tools/seprec_client.py is the client; it renders the
//       streamed answers exactly like `run`.
//
// Process exit codes: 0 = success, 1 = failure, 2 = usage error,
// 3 = a resource limit stopped the evaluation (partial result or
// RESOURCE_EXHAUSTED / CANCELLED), 4 = a --data-dir failed to recover
// (corrupt WAL/snapshot/manifest; see DESIGN.md section 12).
//
// Strategies: auto separable magic counting qsqr seminaive naive.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "server/json.h"
#include "server/server.h"
#include "server/service.h"
#include "core/provenance.h"
#include "datalog/analysis.h"
#include "datalog/diagnostics.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "eval/trace.h"
#include "separable/detection.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "util/string_util.h"

namespace seprec {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "seprec_cli: %s\n", message.c_str());
  return 1;
}

// Limit trips exit 3 so scripts can tell "wrong" (1) from "truncated".
int FailStatus(const Status& status) {
  Fail(status.ToString());
  return status.code() == StatusCode::kResourceExhausted ||
                 status.code() == StatusCode::kCancelled
             ? 3
             : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: seprec_cli run <program.dl> [--data REL=FILE]... "
               "[--strategy S] [--stats]\n"
               "                  [--timeout-ms N] [--max-tuples N] "
               "[--max-bytes N]\n"
               "                  [--trace FILE] [--no-cbo]\n"
               "       seprec_cli check <program.dl>\n"
               "       seprec_cli explain <program.dl> \"<query>\"\n"
               "       seprec_cli why <program.dl> \"<fact>\" "
               "[--data REL=FILE]...\n"
               "       seprec_cli lint <program.dl> "
               "[--format text|json|sarif] [--relaxed]\n"
               "       seprec_cli analyze <program.dl> "
               "[--format text|json|sarif] [--relaxed]\n"
               "                  [--query \"<atom>\"] [--max-bound N] "
               "[--explain-plan] [--data REL=FILE]...\n"
               "       seprec_cli serve <socket> [--data REL=FILE]... "
               "[--trace FILE]\n"
               "                  [--max-prepared N] [--max-closures N] "
               "[--data-dir DIR]\n"
               "                  [--fsync always|batch|off] "
               "[--recover strict|tolerant]\n"
               "                  [--checkpoint-bytes N]\n");
  return 2;
}

// A malformed command line: the message, then the usage text (exit 2).
int UsageError(const std::string& message) {
  Fail(message);
  return Usage();
}

StatusOr<ParsedUnit> LoadUnit(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseUnit(text.str());
}

struct CommonFlags {
  std::vector<std::pair<std::string, std::string>> data;  // rel -> path
  std::optional<Strategy> strategy;
  bool stats = false;
  std::string trace_path;   // --trace FILE: JSON-lines event log
  FixpointOptions options;  // resource limits forwarded to the governor
};

// Owns the --trace output file and the sink wired into FixpointOptions.
// Must outlive every query answered with those options.
struct TraceFile {
  std::ofstream out;
  std::optional<JsonTraceSink> sink;

  Status Open(const std::string& path, FixpointOptions* options) {
    out.open(path, std::ios::out | std::ios::trunc);
    if (!out) {
      return InvalidArgumentError(
          StrCat("cannot open trace file '", path, "'"));
    }
    sink.emplace(&out);
    options->trace = &*sink;
    return Status::OK();
  }
};

StatusOr<int64_t> ParseCount(const std::string& flag,
                             const std::string& text) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
      v < 0) {
    return InvalidArgumentError(
        StrCat(flag, " expects a non-negative integer, got '", text, "'"));
  }
  return static_cast<int64_t>(v);
}

StatusOr<CommonFlags> ParseFlags(int argc, char** argv, int first) {
  CommonFlags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stats") {
      flags.stats = true;
      continue;
    }
    if (arg == "--timeout-ms" && i + 1 < argc) {
      SEPREC_ASSIGN_OR_RETURN(int64_t v, ParseCount(arg, argv[++i]));
      flags.options.limits.timeout_ms = v;
      continue;
    }
    if (arg == "--max-tuples" && i + 1 < argc) {
      SEPREC_ASSIGN_OR_RETURN(int64_t v, ParseCount(arg, argv[++i]));
      flags.options.limits.max_tuples = static_cast<size_t>(v);
      continue;
    }
    if (arg == "--max-bytes" && i + 1 < argc) {
      SEPREC_ASSIGN_OR_RETURN(int64_t v, ParseCount(arg, argv[++i]));
      flags.options.limits.max_bytes = static_cast<size_t>(v);
      continue;
    }
    if (arg == "--trace" && i + 1 < argc) {
      flags.trace_path = argv[++i];
      continue;
    }
    if (arg == "--no-cbo") {
      // Ablation: keep each rule body's textual atom order instead of the
      // cost-based join order (compare with bench/micro_plan.cc).
      flags.options.no_cbo = true;
      continue;
    }
    if (arg == "--data" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return InvalidArgumentError(
            StrCat("--data expects REL=FILE, got '", spec, "'"));
      }
      flags.data.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    if (arg == "--strategy" && i + 1 < argc) {
      SEPREC_ASSIGN_OR_RETURN(flags.strategy, ParseStrategy(argv[++i]));
      continue;
    }
    return InvalidArgumentError(StrCat("unknown flag '", arg, "'"));
  }
  return flags;
}

Status LoadData(const CommonFlags& flags, Database* db) {
  for (const auto& [rel, path] : flags.data) {
    SEPREC_ASSIGN_OR_RETURN(size_t added, LoadRelationTsvFile(db, rel, path));
    std::printf("loaded %zu tuple(s) into %s from %s\n", added, rel.c_str(),
                path.c_str());
  }
  return Status::OK();
}

int RunCommand(const std::string& path, const CommonFlags& flags) {
  StatusOr<ParsedUnit> unit = LoadUnit(path);
  if (!unit.ok()) return Fail(unit.status().ToString());
  StatusOr<QueryProcessor> qp = QueryProcessor::Create(unit->program);
  if (!qp.ok()) return Fail(qp.status().ToString());

  Database db;
  if (Status status = LoadData(flags, &db); !status.ok()) {
    return Fail(status.ToString());
  }
  FixpointOptions options = flags.options;
  TraceFile trace_file;
  if (!flags.trace_path.empty()) {
    if (Status status = trace_file.Open(flags.trace_path, &options);
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (unit->queries.empty()) {
    std::printf("(no queries in %s)\n", path.c_str());
  }
  int exit_code = 0;
  for (const Atom& query : unit->queries) {
    Strategy strategy = flags.strategy.value_or(Strategy::kAuto);
    StatusOr<QueryResult> result =
        qp->Answer(query, &db, strategy, options);
    if (!result.ok()) {
      int code = FailStatus(result.status());
      std::fprintf(stderr, "seprec_cli: while answering %s\n",
                   query.ToString().c_str());
      return code;
    }
    std::printf("?- %s.\n", query.ToString().c_str());
    for (const std::string& t : result->answer.ToStrings(db.symbols())) {
      std::printf("%s\n", t.c_str());
    }
    std::printf("%% %zu answer(s) via %s\n", result->answer.size(),
                std::string(StrategyToString(result->strategy)).c_str());
    for (const Diagnostic& d : result->diagnostics) {
      std::printf("%%%% note[%s]: %s\n", d.code.c_str(), d.message.c_str());
    }
    if (result->partial) {
      StopCause cause = result->degradation.has_value()
                            ? result->degradation->cause
                            : StopCause::kNone;
      std::printf("%%%% partial result (%s)\n",
                  std::string(StopCauseToString(cause)).c_str());
      exit_code = 3;
    }
    if (flags.stats) {
      std::printf("%s", result->stats.ToString().c_str());
    }
  }
  return exit_code;
}

int CheckCommand(const std::string& path) {
  StatusOr<ParsedUnit> unit = LoadUnit(path);
  if (!unit.ok()) return Fail(unit.status().ToString());
  StatusOr<ProgramInfo> info = ProgramInfo::Analyze(unit->program);
  if (!info.ok()) return Fail(info.status().ToString());

  std::printf("%zu rule(s), %zu querie(s)\n", unit->program.rules.size(),
              unit->queries.size());
  std::printf("\nstrata (bottom-up):\n");
  for (size_t s = 0; s < info->strata().size(); ++s) {
    std::string line = StrCat("  ", s, ":");
    for (const std::string& pred : info->strata()[s]) {
      line += " " + pred;
    }
    std::puts(line.c_str());
  }
  std::printf("\npredicates:\n");
  for (const auto& [name, pred] : info->predicates()) {
    std::string kind = pred.is_idb ? "IDB" : "EDB";
    if (pred.is_recursive) {
      kind += info->IsLinearRecursive(name) ? ", linear recursive"
                                            : ", recursive (non-linear)";
    }
    std::printf("  %s/%zu  [%s]\n", name.c_str(), pred.arity, kind.c_str());
    if (!pred.is_recursive) continue;
    auto sep = AnalyzeSeparable(unit->program, name);
    if (sep.ok()) {
      std::string describe = DescribeSeparable(*sep);
      std::istringstream lines(describe);
      std::string line;
      while (std::getline(lines, line)) {
        std::printf("    %s\n", line.c_str());
      }
    } else {
      std::printf("    not separable: %s\n",
                  sep.status().message().c_str());
    }
  }
  return 0;
}

int ExplainCommand(const std::string& path, const std::string& query_text) {
  StatusOr<ParsedUnit> unit = LoadUnit(path);
  if (!unit.ok()) return Fail(unit.status().ToString());
  StatusOr<Atom> query = ParseAtom(query_text);
  if (!query.ok()) return Fail(query.status().ToString());
  StatusOr<QueryProcessor> qp = QueryProcessor::Create(unit->program);
  if (!qp.ok()) return Fail(qp.status().ToString());
  StatusOr<std::string> text = qp->Explain(*query);
  if (!text.ok()) return Fail(text.status().ToString());
  std::printf("%s", text->c_str());
  return 0;
}

int WhyCommand(const std::string& path, const std::string& fact_text,
               const CommonFlags& flags) {
  StatusOr<ParsedUnit> unit = LoadUnit(path);
  if (!unit.ok()) return Fail(unit.status().ToString());
  StatusOr<Atom> fact = ParseAtom(fact_text);
  if (!fact.ok()) return Fail(fact.status().ToString());
  Database db;
  if (Status status = LoadData(flags, &db); !status.ok()) {
    return Fail(status.ToString());
  }
  if (Status status = EvaluateSemiNaive(unit->program, &db, flags.options);
      !status.ok()) {
    return FailStatus(status);
  }
  ProvenanceOptions prov;
  prov.timeout_ms = flags.options.limits.timeout_ms;
  StatusOr<DerivationNode> node =
      ExplainTuple(unit->program, &db, *fact, prov);
  if (!node.ok()) return FailStatus(node.status());
  std::printf("%s", node->ToString().c_str());
  return 0;
}

int LintCommand(const std::string& path, int argc, char** argv, int first) {
  std::string format = "text";
  LintOptions options;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "seprec_cli: unknown lint format '%s'\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    if (arg == "--relaxed") {
      options.separability.require_connected_bodies = false;
      continue;
    }
    std::fprintf(stderr, "seprec_cli: unknown lint flag '%s'\n", arg.c_str());
    return 2;
  }

  std::ifstream in(path);
  if (!in || std::filesystem::is_directory(path)) {
    std::fprintf(stderr, "seprec_cli: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  DiagnosticSink sink;
  StatusOr<ParsedUnit> unit = ParseUnit(text.str(), &sink);
  if (unit.ok()) {
    LintProgram(*unit, options, &sink);
  }
  const std::vector<Diagnostic>& found = sink.diagnostics();
  std::string rendered = format == "json"    ? RenderJson(found, path)
                         : format == "sarif" ? RenderSarif(found, path)
                                             : RenderText(found, path);
  std::printf("%s", rendered.c_str());
  return sink.CountAtLeast(Severity::kWarning) > 0 ? 1 : 0;
}

// `analyze` runs the static-analysis pass pipeline the compiler itself
// uses at Prepare time and renders every verdict as a diagnostic: S2xx
// notes for the pipeline, S1xx warnings when the separability explainer
// had to reject, and the E-series lints when the program cannot be
// analysed at all. Exit contract matches lint: 0 clean, 1 findings at
// warning-or-worse, 2 usage/IO error.
// One line per planned rule, stable across runs for the same program and
// data — the CI plan-golden step diffs this output against committed
// dumps. Text: "  mode=cbo algo=hash cost=42 est_rows=3 order=[1,0]
// stats=[edge=exact] rule: ...". JSON: one object per line (easy to
// collect as a workflow artifact).
std::string RenderPlanNotes(const Atom& query,
                            const std::vector<PlanNote>& plans,
                            const std::string& format) {
  std::string out;
  if (format != "json") {
    out += StrCat("== plan for ", query.ToString(), " ==\n");
  }
  for (const PlanNote& pn : plans) {
    char cost[32];
    std::snprintf(cost, sizeof(cost), "%.6g", pn.cost);
    const std::string& algo = pn.algo.empty() ? "hash" : pn.algo;
    if (format == "json") {
      out += StrCat("{\"query\":\"", json::Escape(query.ToString()),
                    "\",\"rule\":\"", json::Escape(pn.rule),
                    "\",\"mode\":\"", json::Escape(pn.mode),
                    "\",\"algo\":\"", json::Escape(algo),
                    "\",\"order\":\"", json::Escape(pn.order),
                    "\",\"stats\":\"", json::Escape(pn.stats),
                    "\",\"cost\":", cost,
                    ",\"est_rows\":", pn.est_rows, "}\n");
    } else {
      out += StrCat("  mode=", pn.mode, " algo=", algo, " cost=", cost,
                    " est_rows=", pn.est_rows, " order=[", pn.order,
                    "] stats=[", pn.stats, "] rule: ", pn.rule, "\n");
    }
  }
  return out;
}

int AnalyzeCommand(const std::string& path, int argc, char** argv,
                   int first) {
  std::string format = "text";
  std::string query_text;
  bool explain_plan = false;
  std::vector<std::pair<std::string, std::string>> data;
  ProcessorOptions options;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--explain-plan") {
      explain_plan = true;
      continue;
    }
    if (arg == "--data" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "seprec_cli: --data expects REL=FILE, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      data.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "seprec_cli: unknown analyze format '%s'\n",
                     format.c_str());
        return 2;
      }
      continue;
    }
    if (arg == "--relaxed") {
      options.separability.require_connected_bodies = false;
      continue;
    }
    if (arg == "--query" && i + 1 < argc) {
      query_text = argv[++i];
      continue;
    }
    if (arg == "--max-bound" && i + 1 < argc) {
      StatusOr<int64_t> v = ParseCount(arg, argv[++i]);
      if (!v.ok()) {
        std::fprintf(stderr, "seprec_cli: %s\n",
                     v.status().ToString().c_str());
        return 2;
      }
      options.pass_max_bound = static_cast<size_t>(*v);
      continue;
    }
    std::fprintf(stderr, "seprec_cli: unknown analyze flag '%s'\n",
                 arg.c_str());
    return 2;
  }

  std::ifstream in(path);
  if (!in || std::filesystem::is_directory(path)) {
    std::fprintf(stderr, "seprec_cli: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  DiagnosticSink sink;
  StatusOr<ParsedUnit> unit = ParseUnit(text.str(), &sink);
  if (unit.ok()) {
    std::vector<Atom> queries;
    if (!query_text.empty()) {
      StatusOr<Atom> q = ParseAtom(query_text);
      if (!q.ok()) {
        std::fprintf(stderr, "seprec_cli: bad --query: %s\n",
                     q.status().ToString().c_str());
        return 2;
      }
      queries.push_back(std::move(q).value());
    } else {
      queries = unit->queries;
    }

    StatusOr<QueryProcessor> qp =
        QueryProcessor::Create(unit->program, options);
    if (qp.ok()) {
      if (queries.empty()) {
        sink.Report("S200", Severity::kNote, SourceSpan{},
                    "no query to analyze: pass --query or add a '?- q.' "
                    "line to the program");
      }
      Database db;
      if (explain_plan) {
        for (const auto& [rel, file] : data) {
          StatusOr<size_t> added = LoadRelationTsvFile(&db, rel, file);
          if (!added.ok()) {
            std::fprintf(stderr, "seprec_cli: %s\n",
                         added.status().ToString().c_str());
            return 2;
          }
        }
      }
      for (const Atom& query : queries) {
        StatusOr<PassReport> report = qp->AnalyzeQuery(query);
        if (!report.ok()) {
          std::fprintf(stderr, "seprec_cli: %s\n",
                       report.status().ToString().c_str());
          return 2;
        }
        for (const Diagnostic& d : report->diagnostics) {
          sink.Add(d);
        }
        if (explain_plan) {
          // Prepare runs the pipeline and the cost-based planner against
          // the loaded extents; its PassReport carries the chosen orders.
          StatusOr<PreparedQuery> prepared =
              qp->Prepare(query, &db, Strategy::kAuto);
          if (!prepared.ok()) {
            std::fprintf(stderr, "seprec_cli: %s\n",
                         prepared.status().ToString().c_str());
            return 2;
          }
          const PassReport* pr = prepared->pass_report();
          std::string dump = RenderPlanNotes(
              query, pr == nullptr ? std::vector<PlanNote>{} : pr->plans,
              format);
          std::printf("%s", dump.c_str());
        }
      }
    } else {
      // The program does not analyse (unsafe rule, unstratified negation,
      // arity clash, ...): surface the cause as E-series diagnostics
      // rather than a bare status.
      LintArityConsistency(unit->program, &sink);
      LintSafety(unit->program, &sink);
      LintStratification(unit->program, &sink);
      if (!sink.HasErrors()) {
        sink.Report("E002", Severity::kError, SourceSpan{},
                    qp.status().ToString());
      }
    }
  }
  sink.SortBySpan();
  const std::vector<Diagnostic>& found = sink.diagnostics();
  std::string rendered = format == "json"    ? RenderJson(found, path)
                         : format == "sarif" ? RenderSarif(found, path)
                                             : RenderText(found, path);
  std::printf("%s", rendered.c_str());
  return sink.CountAtLeast(Severity::kWarning) > 0 ? 1 : 0;
}

volatile std::sig_atomic_t g_signalled = 0;
void OnSignal(int) { g_signalled = 1; }

int ServeCommand(const std::string& socket_path, int argc, char** argv,
                 int first) {
  ServiceOptions service_options;
  DurabilityOptions durability;
  std::vector<std::pair<std::string, std::string>> data;
  std::string trace_path;
  std::string data_dir;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--data" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return UsageError(StrCat("--data expects REL=FILE, got '", spec, "'"));
      }
      data.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
      continue;
    }
    if (arg == "--max-prepared" && i + 1 < argc) {
      StatusOr<int64_t> v = ParseCount(arg, argv[++i]);
      if (!v.ok()) return UsageError(v.status().ToString());
      service_options.max_prepared = static_cast<size_t>(*v);
      continue;
    }
    if (arg == "--max-closures" && i + 1 < argc) {
      StatusOr<int64_t> v = ParseCount(arg, argv[++i]);
      if (!v.ok()) return UsageError(v.status().ToString());
      service_options.max_closures = static_cast<size_t>(*v);
      continue;
    }
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      continue;
    }
    if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
      continue;
    }
    if (arg == "--fsync" && i + 1 < argc) {
      StatusOr<FsyncPolicy> p = ParseFsyncPolicy(argv[++i]);
      if (!p.ok()) return UsageError(p.status().ToString());
      durability.fsync = *p;
      continue;
    }
    if (arg == "--recover" && i + 1 < argc) {
      std::string mode = argv[++i];
      if (mode == "strict") {
        durability.tolerant = false;
      } else if (mode == "tolerant") {
        durability.tolerant = true;
      } else {
        return UsageError(
            StrCat("--recover expects strict|tolerant, got '", mode, "'"));
      }
      continue;
    }
    if (arg == "--checkpoint-bytes" && i + 1 < argc) {
      StatusOr<int64_t> v = ParseCount(arg, argv[++i]);
      if (!v.ok()) return UsageError(v.status().ToString());
      durability.checkpoint_bytes = static_cast<uint64_t>(*v);
      continue;
    }
    return UsageError(StrCat("unknown serve flag '", arg, "'"));
  }

  Database db;
  std::unique_ptr<DurableStorage> storage;
  if (!data_dir.empty()) {
    RecoveryReport report;
    StatusOr<std::unique_ptr<DurableStorage>> opened =
        DurableStorage::Open(data_dir, &db, durability, &report);
    if (!opened.ok()) {
      Fail(opened.status().ToString());
      return 4;  // recovery failure: distinct from plain failure (1)
    }
    storage = std::move(*opened);
    std::fprintf(stderr,
                 "recovery: %s generation=%llu snapshot=%s "
                 "replayed=%llu record(s)\n",
                 report.fresh ? "fresh data dir" : "recovered",
                 static_cast<unsigned long long>(report.generation),
                 report.snapshot_file.empty() ? "none"
                                              : report.snapshot_file.c_str(),
                 static_cast<unsigned long long>(
                     report.wal_records_replayed));
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "recovery: %s\n", note.c_str());
    }
    service_options.storage = storage.get();
  }
  std::ofstream trace_out;
  std::optional<JsonTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_out.open(trace_path, std::ios::out | std::ios::trunc);
    if (!trace_out) {
      return Fail(StrCat("cannot open trace file '", trace_path, "'"));
    }
    trace_sink.emplace(&trace_out);
    service_options.trace = &*trace_sink;
  }

  QueryService service(&db, service_options);
  // --data loads go through the service so they are write-ahead logged
  // exactly like a client's load op when a data dir is attached.
  for (const auto& [rel, path] : data) {
    StatusOr<size_t> added = service.LoadTsvFile(rel, path);
    if (!added.ok()) return Fail(added.status().ToString());
    std::fprintf(stderr, "loaded %zu tuple(s) into %s from %s\n", *added,
                 rel.c_str(), path.c_str());
  }
  SocketServer server(&service);
  if (Status status = server.Start(socket_path); !status.ok()) {
    return Fail(status.ToString());
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::fprintf(stderr, "seprec_cli: serving on %s\n", socket_path.c_str());
  while (g_signalled == 0 && !server.WaitFor(200)) {
  }
  server.Stop();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  std::string path = argv[2];
  if (command == "run") {
    StatusOr<CommonFlags> flags = ParseFlags(argc, argv, 3);
    if (!flags.ok()) return UsageError(flags.status().ToString());
    return RunCommand(path, *flags);
  }
  if (command == "check") {
    return CheckCommand(path);
  }
  if (command == "explain") {
    if (argc < 4) return Usage();
    return ExplainCommand(path, argv[3]);
  }
  if (command == "lint") {
    return LintCommand(path, argc, argv, 3);
  }
  if (command == "analyze") {
    return AnalyzeCommand(path, argc, argv, 3);
  }
  if (command == "why") {
    if (argc < 4) return Usage();
    StatusOr<CommonFlags> flags = ParseFlags(argc, argv, 4);
    if (!flags.ok()) return UsageError(flags.status().ToString());
    return WhyCommand(path, argv[3], *flags);
  }
  if (command == "serve") {
    return ServeCommand(path, argc, argv, 3);
  }
  return Usage();
}

}  // namespace
}  // namespace seprec

int main(int argc, char** argv) { return seprec::Main(argc, argv); }
