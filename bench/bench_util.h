// Shared helpers for the reproduction benches: aligned table printing,
// growth-exponent fitting, and uniform engine runners.
//
// Each bench binary regenerates one table/figure of the paper (see
// DESIGN.md). The metric is the paper's own (Definition 4.2): the size of
// the largest relation an algorithm constructs, plus wall time on today's
// hardware for context. Absolute 1988 numbers are not reproducible; the
// shapes (who wins, growth exponents, crossovers) are the target.
#ifndef SEPREC_BENCH_BENCH_UTIL_H_
#define SEPREC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "eval/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace seprec {
namespace bench {

// ---- Session: flags + machine-readable results ---------------------------
//
// Every table/figure bench calls Session::Get().Init(argc, argv) first
// thing in main. Recognised flags:
//
//   --json <out.json>   after the run, write every recorded measurement
//                       (name, wall_ns, tuples_per_s, peak_bytes) as JSON —
//                       the input of tools/bench_compare.py and the CI
//                       benchmark-regression job
//   --trace <out.jsonl> attach a JSON-lines trace sink to every RunStrategy
//                       call (events from all engines, appended in run
//                       order). Tracing adds bookkeeping: do not compare a
//                       traced run against an untraced baseline.
//
// Measurements are recorded automatically by RunStrategy; names are
// "<bench>/<seq>/<strategy>", stable across runs because the benches are
// deterministic.
class Session {
 public:
  static Session& Get() {
    static Session session;
    return session;
  }

  void Init(int argc, char** argv) {
    if (argc > 0) {
      const char* slash = std::strrchr(argv[0], '/');
      bench_name_ = slash != nullptr ? slash + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_out_ = std::make_unique<std::ofstream>(argv[++i]);
        if (!*trace_out_) {
          std::fprintf(stderr, "%s: cannot write trace file '%s'\n",
                       bench_name_.c_str(), argv[i]);
          std::exit(2);
        }
        trace_sink_ = std::make_unique<JsonTraceSink>(trace_out_.get());
      } else {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", bench_name_.c_str(),
                     argv[i]);
        std::exit(2);
      }
    }
  }

  TraceSink* trace() const { return trace_sink_.get(); }

  void Record(const std::string& strategy, double seconds, size_t tuples,
              size_t peak_bytes) {
    Entry e;
    e.name = StrCat(bench_name_, "/", entries_.size(), "/", strategy);
    e.wall_ns = static_cast<uint64_t>(seconds * 1e9);
    e.tuples_per_s =
        seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
    e.peak_bytes = peak_bytes;
    entries_.push_back(std::move(e));
  }

  ~Session() {
    if (json_path_.empty()) return;
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", bench_name_.c_str(),
                   json_path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"entries\": [\n",
                 bench_name_.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_ns\": %llu, "
                   "\"tuples_per_s\": %.1f, \"peak_bytes\": %zu}%s\n",
                   e.name.c_str(),
                   static_cast<unsigned long long>(e.wall_ns),
                   e.tuples_per_s, e.peak_bytes,
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  struct Entry {
    std::string name;
    uint64_t wall_ns = 0;
    double tuples_per_s = 0;
    size_t peak_bytes = 0;
  };

  std::string bench_name_ = "bench";
  std::string json_path_;
  std::unique_ptr<std::ofstream> trace_out_;
  std::unique_ptr<JsonTraceSink> trace_sink_;
  std::vector<Entry> entries_;
};

// ---- Table printing -------------------------------------------------------

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& row) {
      std::string line = "  ";
      for (size_t c = 0; c < row.size(); ++c) {
        line += row[c];
        if (c + 1 < row.size()) {
          line.append(widths[c] - row[c].size() + 2, ' ');
        }
      }
      std::puts(line.c_str());
    };
    print_row(headers_);
    size_t total = 2;
    for (size_t w : widths) total += w + 2;
    std::puts(std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Banner(const std::string& title) {
  std::puts("");
  std::puts(std::string(74, '=').c_str());
  std::puts(title.c_str());
  std::puts(std::string(74, '=').c_str());
}

inline void Note(const std::string& text) { std::puts(text.c_str()); }

// ---- Fitting ---------------------------------------------------------------

// Least-squares slope of log(y) against log(x): the growth exponent of a
// polynomial series. Ignores non-positive values.
inline double FitPolynomialExponent(const std::vector<double>& xs,
                                    const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0 || ys[i] <= 0) continue;
    double lx = std::log(xs[i]);
    double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  double denom = n * sxx - sx * sx;
  if (denom == 0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

// Least-squares slope of log(y) against x: log2 of the base of an
// exponential series (log2(y) ~ slope * x).
inline double FitExponentialBaseLog2(const std::vector<double>& xs,
                                     const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (ys[i] <= 0) continue;
    double ly = std::log2(ys[i]);
    sx += xs[i];
    sy += ly;
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  double denom = n * sxx - sx * sx;
  if (denom == 0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

// The median of `values`, which must not be empty (the mean of the middle
// two for an even count). A same-run wall-time gate takes the median of
// per-rep ratios over interleaved reps: both sides of each ratio see the
// same host noise, and one noisy rep cannot flip the gate as it can flip
// a comparison of means.
inline double Median(std::vector<double> values) {
  SEPREC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

inline std::string Fmt(double v) {
  char buf[64];
  if (v >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

inline std::string FmtSeconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

// ---- Engine runner -----------------------------------------------------------

struct RunOutcome {
  bool ok = false;
  std::string failure;      // short status text when !ok
  size_t answers = 0;
  size_t max_relation = 0;  // the paper's metric
  size_t total_tuples = 0;  // sum of constructed relation sizes
  size_t iterations = 0;
  double seconds = 0;
  EvalStats stats;
};

// Runs `strategy` on (program, query, db) with an optional budget, timing
// the whole call. The database is consumed (engines materialise into it).
// The measurement lands in the Session (for --json emission).
inline RunOutcome RunStrategy(const QueryProcessor& qp, const Atom& query,
                              Database* db, Strategy strategy,
                              const FixpointOptions& options = {}) {
  RunOutcome out;
  FixpointOptions opts = options;
  if (Session::Get().trace() != nullptr) {
    opts.trace = Session::Get().trace();
  }
  WallTimer timer;
  StatusOr<QueryResult> result = qp.Answer(query, db, strategy, opts);
  out.seconds = timer.Seconds();
  if (!result.ok()) {
    out.failure = std::string(StatusCodeToString(result.status().code()));
    return out;
  }
  out.ok = true;
  out.answers = result->answer.size();
  out.max_relation = result->stats.max_relation_size;
  out.total_tuples = result->stats.TotalRelationSize();
  out.iterations = result->stats.iterations;
  out.stats = result->stats;
  Session::Get().Record(std::string(StrategyToString(result->strategy)),
                        out.seconds, out.total_tuples,
                        db->accountant().bytes());
  return out;
}

}  // namespace bench
}  // namespace seprec

#endif  // SEPREC_BENCH_BENCH_UTIL_H_
