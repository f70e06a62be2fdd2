// End-to-end tests of the seprec_cli binary (spawned as a subprocess).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/trace.h"
#include "util/string_util.h"

namespace seprec {
namespace {

#ifndef SEPREC_CLI_PATH
#error "SEPREC_CLI_PATH must be defined by the build"
#endif
#ifndef SEPREC_TESTDATA_DIR
#error "SEPREC_TESTDATA_DIR must be defined by the build"
#endif

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCli(const std::string& args) {
  CliResult result;
  std::string command = StrCat(SEPREC_CLI_PATH, " ", args, " 2>&1");
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string Data(const std::string& file) {
  return StrCat(SEPREC_TESTDATA_DIR, "/", file);
}

TEST(Cli, UsageOnNoArguments) {
  CliResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, RunSocialProgram) {
  CliResult r = RunCli(StrCat("run ", Data("social.dl")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("?- buys(ann, Y)."), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(ann, hat)"), std::string::npos);
  EXPECT_NE(r.output.find("(ann, mug)"), std::string::npos);
  EXPECT_NE(r.output.find("via separable"), std::string::npos);
  // Second query binds the persistent column.
  EXPECT_NE(r.output.find("?- buys(X, hat)."), std::string::npos);
}

TEST(Cli, RunWithTsvData) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --data edge=",
                              Data("edges.tsv")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("loaded 3 tuple(s) into edge"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(a, d)"), std::string::npos);
  EXPECT_NE(r.output.find("3 answer(s)"), std::string::npos);
}

TEST(Cli, RunWithTraceWritesJsonLines) {
  std::string trace_path =
      StrCat(::testing::TempDir(), "/cli_trace_test.jsonl");
  std::remove(trace_path.c_str());
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --data edge=",
                              Data("edges.tsv"), " --trace ", trace_path));
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.is_open()) << trace_path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(trace, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  bool saw_start = false;
  bool saw_finish = false;
  bool saw_round = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    // Envelope on every line, in emission order.
    EXPECT_EQ(lines[i].rfind(StrCat("{\"v\":", JsonTraceSink::kSchemaVersion,
                                    ",\"seq\":", i, ",\"t\":"),
                             0),
              0u)
        << lines[i];
    if (lines[i].find("\"ev\":\"engine_start\"") != std::string::npos) {
      saw_start = true;
    }
    if (lines[i].find("\"ev\":\"engine_finish\"") != std::string::npos) {
      saw_finish = true;
    }
    if (lines[i].find("\"ev\":\"round_end\"") != std::string::npos) {
      saw_round = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
  EXPECT_TRUE(saw_round);
  std::remove(trace_path.c_str());
}

// Writes `contents` to a file under the test temp dir; returns its path.
std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  std::string path = StrCat(::testing::TempDir(), "/", name);
  std::ofstream(path) << contents;
  return path;
}

TEST(Cli, TraceBalancedAcrossFallback) {
  // The loaded 3-column `s` clashes with the 2-column support predicate, so
  // Separable fails inside its run and the query falls back to Magic. Every
  // engine that started — the failed one included — must still finish.
  std::string program = WriteTempFile(
      "cli_fallback.dl",
      "s(X, Y) :- b(X, Y).\n"
      "t(X, Y) :- s(X, Z) & t(Z, Y).\n"
      "t(X, Y) :- t0(X, Y).\n"
      "?- t(a, Y).\n");
  std::string b = WriteTempFile("cli_fallback_b.tsv", "a\tb\n");
  std::string t0 = WriteTempFile("cli_fallback_t0.tsv", "b\tc\n");
  std::string s = WriteTempFile("cli_fallback_s.tsv", "x\ty\tz\n");
  std::string trace_path =
      StrCat(::testing::TempDir(), "/cli_fallback_trace.jsonl");
  std::remove(trace_path.c_str());
  CliResult r = RunCli(StrCat("run ", program, " --data b=", b,
                              " --data t0=", t0, " --data s=", s,
                              " --trace ", trace_path));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(a, c)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("via magic"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("note[G001]: separable strategy failed"),
            std::string::npos)
      << r.output;

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.is_open()) << trace_path;
  std::map<std::string, std::pair<int, int>> counts;  // engine -> start/finish
  std::string line;
  while (std::getline(trace, line)) {
    for (const char* ev : {"engine_start", "engine_finish"}) {
      std::string prefix = StrCat("\"ev\":\"", ev, "\",\"engine\":\"");
      size_t at = line.find(prefix);
      if (at == std::string::npos) continue;
      at += prefix.size();
      std::string engine = line.substr(at, line.find('"', at) - at);
      if (std::string(ev) == "engine_start") {
        ++counts[engine].first;
      } else {
        ++counts[engine].second;
      }
    }
  }
  std::map<std::string, std::pair<int, int>> expected = {
      {"separable", {1, 1}}, {"seminaive", {2, 2}}, {"magic", {1, 1}}};
  EXPECT_EQ(counts, expected);
  for (const std::string& path : {program, b, t0, s, trace_path}) {
    std::remove(path.c_str());
  }
}

TEST(Cli, TraceToUnwritablePathFails) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"),
                              " --trace /nonexistent-dir/trace.jsonl"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot open trace file"), std::string::npos)
      << r.output;
}

TEST(Cli, RunWithExpiredDeadlineExitsThreeWithPartialBanner) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --data edge=",
                              Data("edges.tsv"), " --timeout-ms 0"));
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("%% partial result (deadline exceeded)"),
            std::string::npos)
      << r.output;
}

TEST(Cli, RunWithTupleBudgetExitsThree) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --data edge=",
                              Data("edges.tsv"), " --max-tuples 1"));
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("%% partial result (tuple budget exhausted)"),
            std::string::npos)
      << r.output;
}

TEST(Cli, RunWithGenerousLimitsStillSucceeds) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --data edge=",
                              Data("edges.tsv"),
                              " --timeout-ms 60000 --max-tuples 100000"
                              " --max-bytes 100000000"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("3 answer(s)"), std::string::npos);
  EXPECT_EQ(r.output.find("%% partial"), std::string::npos) << r.output;
}

TEST(Cli, BadLimitFlagIsUsageError) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --timeout-ms soon"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("non-negative integer"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownStrategyIsUsageError) {
  CliResult r = RunCli(StrCat("run ", Data("tc.dl"), " --strategy bogus"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown strategy 'bogus'"), std::string::npos)
      << r.output;
}

TEST(Cli, RunWithForcedStrategyAndStats) {
  CliResult r = RunCli(StrCat("run ", Data("social.dl"),
                              " --strategy magic --stats"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("via magic"), std::string::npos);
  EXPECT_NE(r.output.find("algorithm: magic"), std::string::npos);
  EXPECT_NE(r.output.find("max relation size"), std::string::npos);
}

TEST(Cli, CheckReportsSeparability) {
  CliResult r = RunCli(StrCat("check ", Data("social.dl")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("buys/2"), std::string::npos);
  EXPECT_NE(r.output.find("linear recursive"), std::string::npos);
  EXPECT_NE(r.output.find("separable recursion 'buys'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("strata"), std::string::npos);
}

TEST(Cli, ExplainShowsSchema) {
  CliResult r = RunCli(StrCat("explain ", Data("social.dl"),
                              " \"buys(ann, Y)\""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("strategy : separable"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("carry_1(ann);"), std::string::npos);
}

TEST(Cli, WhyShowsDerivation) {
  CliResult r = RunCli(StrCat("why ", Data("social.dl"),
                              " \"buys(ann, hat)\""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("buys(ann, hat)"), std::string::npos);
  EXPECT_NE(r.output.find("perfectFor(dia, hat)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[fact]"), std::string::npos);
}

TEST(Cli, ExamplePrograms) {
  // The shipped .dl library under examples/programs runs end-to-end.
  const std::string dir = std::string(SEPREC_TESTDATA_DIR) +
                          "/../../examples/programs";
  CliResult bom = RunCli(StrCat("run ", dir, "/bom.dl"));
  EXPECT_EQ(bom.exit_code, 0) << bom.output;
  EXPECT_NE(bom.output.find("(bearing, bike)"), std::string::npos)
      << bom.output;
  EXPECT_NE(bom.output.find("(bike, 8)"), std::string::npos)
      << bom.output;  // 8 component kinds in bike

  CliResult sg = RunCli(StrCat("run ", dir, "/same_generation.dl"));
  EXPECT_EQ(sg.exit_code, 0) << sg.output;
  EXPECT_NE(sg.output.find("via magic"), std::string::npos) << sg.output;

  CliResult blocked = RunCli(StrCat("run ", dir, "/blocked_routes.dl"));
  EXPECT_EQ(blocked.exit_code, 0) << blocked.output;
  EXPECT_NE(blocked.output.find("via separable"), std::string::npos)
      << blocked.output;
  EXPECT_NE(blocked.output.find("(a, d)"), std::string::npos);
  EXPECT_EQ(blocked.output.find("(a, c)"), std::string::npos);
}

// ---- minimal JSON parser (for round-tripping `lint --format json`) ------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = fields.find(key);
    return it == fields.end() ? kNullValue : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = Value(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(
        static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->str);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = c == 't';
      const char* word = c == 't' ? "true" : "false";
      size_t len = c == 't' ? 4 : 5;
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return false;
      pos_ += 4;
      return true;
    }
    return Number(out);
  }

  bool Number(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            out->push_back(static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16)));
            pos_ += 4;
            break;
          default: out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  bool Array(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    do {
      JsonValue item;
      if (!Value(&item)) return false;
      out->items.push_back(std::move(item));
    } while (Consume(','));
    return Consume(']');
  }

  bool Object(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (!String(&key) || !Consume(':')) return false;
      JsonValue value;
      if (!Value(&value)) return false;
      out->fields.emplace(std::move(key), std::move(value));
    } while (Consume(','));
    return Consume('}');
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- lint subcommand ----------------------------------------------------

TEST(Cli, LintTextReport) {
  CliResult r = RunCli(StrCat("lint ", Data("lint_demo.dl")));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // warnings present
  // The separable recursion gets its success note with a span.
  EXPECT_NE(r.output.find("note: 't' is a separable recursion"),
            std::string::npos)
      << r.output;
  // The disconnected recursion is explained via condition 4 at line 7.
  EXPECT_NE(r.output.find(":7:1: warning: condition 4"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[S104]"), std::string::npos);
  EXPECT_NE(r.output.find("fix-it: run with --relaxed"), std::string::npos);
  // The unused predicate and singleton variable lints fire with spans.
  EXPECT_NE(r.output.find(":8:1: warning: predicate 'dead'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'Solo' occurs only once"), std::string::npos);
  // Summary line.
  EXPECT_NE(r.output.find("warning(s)"), std::string::npos);
}

TEST(Cli, LintRelaxedAcceptsDisconnectedBodies) {
  CliResult r = RunCli(StrCat("lint ", Data("lint_demo.dl"), " --relaxed"));
  EXPECT_EQ(r.output.find("[S104]"), std::string::npos) << r.output;
  // 'bad' now gets its own separability note.
  EXPECT_NE(r.output.find("'bad' is a separable recursion"),
            std::string::npos)
      << r.output;
}

TEST(Cli, LintJsonRoundTrips) {
  CliResult r = RunCli(StrCat("lint ", Data("lint_demo.dl"),
                              " --format json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  JsonValue root;
  ASSERT_TRUE(JsonParser(r.output).Parse(&root)) << r.output;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_NE(root.at("path").str.find("lint_demo.dl"), std::string::npos);
  const JsonValue& diags = root.at("diagnostics");
  ASSERT_EQ(diags.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(diags.items.empty());
  bool saw_s104 = false;
  for (const JsonValue& d : diags.items) {
    ASSERT_EQ(d.kind, JsonValue::Kind::kObject);
    EXPECT_FALSE(d.at("code").str.empty());
    EXPECT_FALSE(d.at("message").str.empty());
    EXPECT_GT(d.at("line").number, 0);  // every finding has a span
    EXPECT_GT(d.at("col").number, 0);
    if (d.at("code").str == "S104") {
      saw_s104 = true;
      EXPECT_EQ(d.at("severity").str, "warning");
      EXPECT_EQ(d.at("line").number, 7);
      EXPECT_NE(d.at("fixit").str.find("--relaxed"), std::string::npos);
      ASSERT_EQ(d.at("notes").kind, JsonValue::Kind::kArray);
      ASSERT_FALSE(d.at("notes").items.empty());
      EXPECT_NE(d.at("notes").items[0].at("message").str.find(
                    "stray component"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_s104) << r.output;
}

TEST(Cli, LintSarifIsWellFormedJson) {
  CliResult r = RunCli(StrCat("lint ", Data("lint_demo.dl"),
                              " --format sarif"));
  JsonValue root;
  ASSERT_TRUE(JsonParser(r.output).Parse(&root)) << r.output;
  EXPECT_EQ(root.at("version").str, "2.1.0");
  const JsonValue& runs = root.at("runs");
  ASSERT_EQ(runs.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(runs.items.size(), 1u);
  EXPECT_EQ(runs.items[0].at("tool").at("driver").at("name").str,
            "seprec-lint");
  EXPECT_FALSE(runs.items[0].at("results").items.empty());
}

TEST(Cli, LintCleanProgramExitsZero) {
  const std::string path = "/tmp/seprec_lint_clean.dl";
  {
    std::ofstream out(path);
    out << "e(a, b).\np(X, Y) :- e(X, Y).\n?- p(a, Q).\n";
  }
  CliResult r = RunCli(StrCat("lint ", path));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no findings."), std::string::npos) << r.output;
}

TEST(Cli, LintParseErrorIsStructured) {
  const std::string path = "/tmp/seprec_lint_broken.dl";
  {
    std::ofstream out(path);
    out << "p(a).\nq(X :- r(X).\n";
  }
  CliResult r = RunCli(StrCat("lint ", path));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(":2:5: error:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[P001]"), std::string::npos);
}

TEST(Cli, LintUsageErrors) {
  EXPECT_EQ(RunCli("lint /no/such/file.dl").exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("lint ", Data("lint_demo.dl"),
                          " --format yaml")).exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("lint ", Data("lint_demo.dl"),
                          " --bogus")).exit_code, 2);
}

// ---- analyze subcommand -------------------------------------------------

TEST(Cli, AnalyzeBoundedProgramIsFullyDerecursed) {
  CliResult r = RunCli(StrCat("analyze ", Data("bounded.dl")));
  EXPECT_EQ(r.exit_code, 0) << r.output;  // notes only
  // The recursion is proven bounded and rewritten away...
  EXPECT_NE(r.output.find("[S201]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("verified by containment"), std::string::npos);
  // ...the orphan rule is eliminated as dead...
  EXPECT_NE(r.output.find("[S204]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[S205]"), std::string::npos) << r.output;
  // ...and the recorded strategy selection is the non-recursive plan.
  EXPECT_NE(r.output.find("strategy for t(a, Y): nonrecursive"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("dead-rules=rewritten,bounded=rewritten"),
            std::string::npos)
      << r.output;
}

TEST(Cli, AnalyzeNonlinearFallsThroughToSemiNaive) {
  CliResult r = RunCli(StrCat("analyze ", Data("nonlinear.dl")));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // the S100 explainer is a warning
  EXPECT_NE(r.output.find("[S100]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[S202]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[S207]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("strategy for path(X, Y): seminaive"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "dead-rules=proved,bounded=abstained,separability=abstained"),
            std::string::npos)
      << r.output;
}

TEST(Cli, AnalyzeQueryOverride) {
  // A bound selection on the nonlinear program records magic instead.
  CliResult r = RunCli(StrCat("analyze ", Data("nonlinear.dl"),
                              " --query \"path(a, Y)\""));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("strategy for path(a, Y): magic"),
            std::string::npos)
      << r.output;
}

TEST(Cli, AnalyzeJsonRoundTrips) {
  CliResult r = RunCli(StrCat("analyze ", Data("bounded.dl"),
                              " --format json"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  JsonValue root;
  ASSERT_TRUE(JsonParser(r.output).Parse(&root)) << r.output;
  const JsonValue& diags = root.at("diagnostics");
  ASSERT_EQ(diags.kind, JsonValue::Kind::kArray);
  bool saw_s201 = false;
  bool saw_s200 = false;
  for (const JsonValue& d : diags.items) {
    EXPECT_GT(d.at("line").number, 0);
    if (d.at("code").str == "S201") {
      saw_s201 = true;
      EXPECT_EQ(d.at("severity").str, "note");
    }
    if (d.at("code").str == "S200") {
      saw_s200 = true;
      EXPECT_NE(d.at("message").str.find("nonrecursive"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_s201) << r.output;
  EXPECT_TRUE(saw_s200) << r.output;
}

TEST(Cli, AnalyzeSarifIsWellFormedJson) {
  CliResult r = RunCli(StrCat("analyze ", Data("bounded.dl"),
                              " --format sarif"));
  JsonValue root;
  ASSERT_TRUE(JsonParser(r.output).Parse(&root)) << r.output;
  EXPECT_EQ(root.at("version").str, "2.1.0");
  const JsonValue& runs = root.at("runs");
  ASSERT_EQ(runs.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(runs.items.size(), 1u);
  bool saw_pipeline_rule = false;
  for (const JsonValue& result : runs.items[0].at("results").items) {
    if (result.at("ruleId").str == "S200") saw_pipeline_rule = true;
  }
  EXPECT_TRUE(saw_pipeline_rule) << r.output;
}

TEST(Cli, AnalyzeBrokenProgramReportsESeries) {
  const std::string path = "/tmp/seprec_analyze_unsafe.dl";
  {
    std::ofstream out(path);
    // Head variable Y never bound in the body: unsafe (E001).
    out << "e(a, b).\np(X, Y) :- e(X, Z).\n?- p(a, Q).\n";
  }
  CliResult r = RunCli(StrCat("analyze ", path));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[E001]"), std::string::npos) << r.output;
}

TEST(Cli, AnalyzeUsageErrors) {
  EXPECT_EQ(RunCli("analyze /no/such/file.dl").exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("analyze ", Data("bounded.dl"),
                          " --format yaml")).exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("analyze ", Data("bounded.dl"),
                          " --bogus")).exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("analyze ", Data("bounded.dl"),
                          " --max-bound many")).exit_code, 2);
}

// Rules over relations with no data yet are planned as over the empty
// relations execution creates, not reported as an unplanned fallback.
TEST(Cli, ExplainPlanWithoutDataPlansEveryRule) {
  const std::string path = StrCat(::testing::TempDir(), "/cli_no_data.dl");
  {
    std::ofstream out(path);
    out << "t(X, Y) :- e(X, Z) & f(Z, Y).\n"
           "t(X, Y) :- e(X, Z) & t(Z, Y).\n"
           "?- t(a, Y).\n";
  }
  CliResult r = RunCli(StrCat("analyze ", path, " --explain-plan"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("cbo-fallback"), std::string::npos) << r.output;
  size_t planned = 0;
  for (size_t at = r.output.find("  mode=cbo "); at != std::string::npos;
       at = r.output.find("  mode=cbo ", at + 1)) {
    size_t eol = r.output.find('\n', at);
    EXPECT_NE(r.output.substr(at, eol - at).find("order=[0,1]"),
              std::string::npos)
        << r.output;
    ++planned;
  }
  EXPECT_EQ(planned, 2u) << r.output;
  std::remove(path.c_str());
}

// There is no `--no-segments` flag and no `client` subcommand; asking for
// them is a usage error, never a silent no-op.
TEST(Cli, RemovedFlagsAndClientAreRejected) {
  CliResult run = RunCli(StrCat("run ", Data("tc.dl"), " --no-segments"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown flag '--no-segments'"),
            std::string::npos)
      << run.output;

  // The socket path is unbindable, so a serve that accepted the flag
  // would fail with a bind error instead of this message.
  CliResult serve =
      RunCli("serve /nonexistent-dir/seprec.sock --no-segments");
  EXPECT_EQ(serve.exit_code, 1) << serve.output;
  EXPECT_NE(serve.output.find("unknown serve flag '--no-segments'"),
            std::string::npos)
      << serve.output;

  CliResult client = RunCli(StrCat("client /nonexistent-dir/seprec.sock ",
                                   Data("tc.dl")));
  EXPECT_EQ(client.exit_code, 2) << client.output;
  EXPECT_NE(client.output.find("usage:"), std::string::npos)
      << client.output;
}

TEST(Cli, ErrorsAreClean) {
  EXPECT_EQ(RunCli("run /no/such/file.dl").exit_code, 1);
  EXPECT_EQ(RunCli(StrCat("explain ", Data("social.dl"), " \"((\"")).exit_code,
            1);
  EXPECT_EQ(RunCli(StrCat("why ", Data("social.dl"),
                          " \"buys(nobody, nothing)\"")).exit_code, 1);
  // Malformed flags are usage errors, matching lint's convention.
  EXPECT_EQ(RunCli(StrCat("run ", Data("social.dl"),
                          " --strategy bogus")).exit_code, 2);
  EXPECT_EQ(RunCli(StrCat("run ", Data("social.dl"),
                          " --data bad-spec")).exit_code, 2);
}

}  // namespace
}  // namespace seprec
