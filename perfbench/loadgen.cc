// perfbench_loadgen: one benchmark run of one workload.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH [--corrupt-one]
//
// Generates the workload's EDB from the seed, checkpoints it into a fresh
// data dir (v3 segments), spawns `seprec_cli serve` on a copy, and drives
// the workload's closed loops over the Unix socket for S seconds. Every
// answer is checked against the independent oracle after the window.
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the socket
// run once and then replays the same request stream in-process with
// per-layer spans (replay.cc). Run data goes to .bench_run/ under the
// current directory. The last stdout line is the JSON result.
// --corrupt-one flips one checked answer (the benchmark's self-test: the
// result must then report a failure).
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "replay.h"
#include "server/json.h"
#include "socket_run.h"
#include "storage/database.h"
#include "storage/io.h"
#include "storage/recovery.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string cli;
  bool corrupt_one = false;
};

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

// The middle value, or the mean of the middle two.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// The host's CPU time so far, all of it and the part stolen by the
// hypervisor (the first line of /proc/stat), in clock ticks.
struct HostCpu {
  double total = 0;
  double steal = 0;
};
HostCpu ReadHostCpu() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  HostCpu h;
  if (f == nullptr) return h;
  char label[16];
  double v[8] = {};
  if (std::fscanf(f, "%15s %lf %lf %lf %lf %lf %lf %lf %lf", label, &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9) {
    for (double x : v) h.total += x;
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

// The highest checkpoint id among the data dir's snapshot files.
int SnapshotId(const std::string& dir) {
  int id = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) {
      id = std::max(id, std::atoi(name.c_str() + 9));
    }
  }
  return id;
}

// Loads the EDB into a fresh data dir and checkpoints it, so the server
// recovers onto mmap-backed v3 segment pages.
bool PrepareDataDir(const Edb& edb, const std::string& dir, std::string* err) {
  seprec::Database db;
  seprec::DurabilityOptions opts;
  opts.fsync = seprec::FsyncPolicy::kOff;
  seprec::RecoveryReport report;
  auto storage = seprec::DurableStorage::Open(dir, &db, opts, &report);
  if (!storage.ok()) {
    *err = storage.status().ToString();
    return false;
  }
  for (const auto& [name, rows] : edb.relations) {
    seprec::TupleBatch batch;
    batch.relation = name;
    batch.arity = rows.empty() || rows[0].second.empty() ? 1 : 2;
    for (const Pair& p : rows) {
      std::vector<seprec::TypedCell> row{seprec::TypedCell::Symbol(p.first)};
      if (batch.arity == 2) row.push_back(seprec::TypedCell::Symbol(p.second));
      batch.rows.push_back(std::move(row));
    }
    if (auto s = seprec::ApplyTupleBatch(&db, batch); !s.ok()) {
      *err = s.status().ToString();
      return false;
    }
  }
  auto ck = (*storage)->Checkpoint(db);
  if (!ck.ok()) {
    *err = ck.status().ToString();
    return false;
  }
  return true;
}

// The timed window runs in this many phases of equal op count, and the
// server's CPU time is read at the end of each.
constexpr int kPhases = 10;

// The server's CPU time over one phase.
struct Phase {
  double user_s = 0.0;
  double system_s = 0.0;
  uint64_t ops = 0;
  double UsPerOp() const {
    return (user_s + system_s) * 1e6 / static_cast<double>(std::max<uint64_t>(ops, 1));
  }
};

struct SocketRun {
  std::vector<double> setup_s;
  std::vector<std::string> subscribed;  // subscribe `done` lines
  std::vector<OpRecord> warmup;         // the final repetition's warm-up
  std::vector<std::vector<OpRecord>> window;
  std::vector<std::pair<int64_t, std::string>> deltas;  // (t, line)
  int64_t t0 = 0;          // window start
  int64_t window_ns = 0;   // window start to the last completion
  double cpu_s = 0.0;      // this process's CPU during the window
  std::vector<Phase> phases;  // the server's CPU during the window
  double steal_share = 0.0;   // host CPU time stolen by the hypervisor
  double rss_mb = 0.0;
  uint64_t dir_bytes = 0;
  int checkpoints = 0;
  std::vector<OpRecord> durability;  // dumps after a restart (write_mix)
};

// Spawns the server `reps` times on fresh copies of the prepared data dir,
// timing spawn + recovery + subscriptions + warm-up each time, and keeps
// the last one running into the timed window.
bool RunSocket(const Options& o, const Workload& wl, const std::string& base,
               int reps, SocketRun* run, std::string* err) {
  const std::string pristine = base + "/pristine";
  const std::string data = base + "/data";
  const std::string sock = base + "/serve.sock";
  const std::string log = base + "/serve.log";
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<Connection> sub_conn;
  // Joined on every exit path, after `server` (declared below, so
  // destroyed first) has ended the stream the reader blocks on.
  struct JoinOnExit {
    std::thread t;
    ~JoinOnExit() {
      if (t.joinable()) t.join();
    }
  } reader;
  std::thread& sub_reader = reader.t;
  ServerProcess server;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(data);
    fs::copy(pristine, data, fs::copy_options::recursive);
    const int64_t t_spawn = NowNs();
    if (!server.Start(o.cli, sock, data, wl, log)) {
      *err = "serve did not start (see " + log + ")";
      return false;
    }
    conns.clear();
    for (int c = 0; c < wl.connections; ++c) {
      conns.push_back(std::make_unique<Connection>());
      if (!conns.back()->Connect(sock)) {
        *err = "cannot connect to " + sock;
        return false;
      }
    }
    run->subscribed.clear();
    run->deltas.clear();
    if (!wl.subscriptions.empty()) {
      sub_conn = std::make_unique<Connection>();
      if (!sub_conn->Connect(sock)) {
        *err = "cannot connect the subscriber";
        return false;
      }
      int64_t id = 1;
      for (const OpPtr& op : wl.subscriptions) {
        std::string_view line;
        if (!sub_conn->Send(op->SubscribeLine(id++)) ||
            !sub_conn->ReadLine(&line)) {
          *err = "subscribe failed";
          return false;
        }
        run->subscribed.emplace_back(line);
      }
      // Deltas must be drained from the start: a full socket buffer would
      // stall the server's notify sweep, and with it the mutator.
      sub_reader = std::thread([&run, &sub_conn] {
        std::string_view line;
        while (sub_conn->ReadLine(&line)) {
          run->deltas.emplace_back(NowNs(), std::string(line));
        }
      });
    }
    run->warmup.assign(wl.warmup.size(), OpRecord());
    for (size_t i = 0; i < wl.warmup.size(); ++i) {
      RunOp(conns[0].get(), wl.warmup[i], 1000 + static_cast<int64_t>(i),
            t_spawn, &run->warmup[i]);
    }
    if (!wl.concurrent_warmup.empty()) {
      std::vector<std::vector<OpRecord>> warm(wl.connections);
      std::vector<std::thread> workers;
      for (int c = 0; c < wl.connections; ++c) {
        workers.emplace_back([&, c] {
          for (const OpPtr& op : wl.concurrent_warmup[c]) {
            warm[c].emplace_back();
            RunOp(conns[c].get(), op, 500, t_spawn, &warm[c].back());
          }
        });
      }
      for (std::thread& t : workers) t.join();
      for (auto& w : warm) {
        run->warmup.insert(run->warmup.end(), w.begin(), w.end());
      }
    }
    run->setup_s.push_back((NowNs() - t_spawn) * 1e-9);
    if (rep + 1 < reps) {
      server.Stop(conns[0].get());
      if (sub_reader.joinable()) sub_reader.join();
    }
  }

  run->window.assign(wl.connections, {});
  const HostCpu host0 = ReadHostCpu();
  ServerProcess::CpuTimes server_mark = server.Cpu();
  run->t0 = NowNs();
  // A fixed op count; the deadline only bounds a much slower commit.
  const uint64_t quota = wl.ops_per_second * o.seconds / wl.connections;
  const int64_t deadline = run->t0 + int64_t{o.seconds} * 4'000'000'000;
  std::vector<char> broken(wl.connections, 0);
  auto worker = [&](int c, uint64_t until) {
    std::vector<OpRecord>& recs = run->window[c];
    recs.reserve(quota);
    int64_t id = (int64_t{c + 1} << 32) + static_cast<int64_t>(recs.size());
    while (!broken[c] && recs.size() < until && NowNs() < deadline) {
      recs.emplace_back();
      RunOp(conns[c].get(), wl.streams[c](), id++, run->t0, &recs.back());
      if (recs.back().error && recs.back().summary.rfind("{", 0) != 0) {
        broken[c] = 1;
      }
    }
  };
  const double cpu0 = CpuSeconds();
  uint64_t ops_done = 0;
  for (int p = 0; p < kPhases; ++p) {
    // Every connection sends its share of the phase; the next phase starts
    // when all have finished.
    const uint64_t until = quota * (p + 1) / kPhases;
    std::vector<std::thread> workers;
    for (int c = 1; c < wl.connections; ++c) {
      workers.emplace_back(worker, c, until);
    }
    worker(0, until);
    for (std::thread& t : workers) t.join();
    const ServerProcess::CpuTimes server_cpu = server.Cpu();
    Phase phase;
    phase.user_s = server_cpu.user_s - server_mark.user_s;
    phase.system_s = server_cpu.system_s - server_mark.system_s;
    server_mark = server_cpu;
    for (const auto& recs : run->window) phase.ops += recs.size();
    phase.ops -= ops_done;
    ops_done += phase.ops;
    run->phases.push_back(phase);
  }
  run->cpu_s = CpuSeconds() - cpu0;
  const HostCpu host1 = ReadHostCpu();
  run->steal_share = (host1.steal - host0.steal) /
                     std::max(host1.total - host0.total, 1.0);
  for (const auto& recs : run->window) {
    for (const OpRecord& r : recs) {
      run->window_ns = std::max(run->window_ns, r.end_ns);
    }
  }
  run->rss_mb = server.PeakRssMb();
  server.Stop(conns[0].get());
  if (sub_reader.joinable()) sub_reader.join();
  for (auto& [t, line] : run->deltas) t -= run->t0;
  run->dir_bytes = DirBytes(data);
  run->checkpoints = SnapshotId(data) - SnapshotId(pristine);

  if (wl.mutates) {
    // Durability: a restart on the same dir must hold every acknowledged
    // write.
    if (!server.Start(o.cli, sock, data, wl, log) ||
        !conns[0]->Connect(sock)) {
      *err = "serve did not restart on " + data;
      return false;
    }
    for (const OpPtr& op :
         {DumpQuery("link", false), DumpQuery("blocked", true)}) {
      run->durability.emplace_back();
      RunOp(conns[0].get(), op, 9, NowNs(), &run->durability.back());
    }
    server.Stop(conns[0].get());
  }
  return true;
}

// ---- verification ----------------------------------------------------------

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> examples;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (examples.size() < 5) examples.push_back(what);
  }
};

std::string Describe(const OpRecord& r) {
  std::string what = r.op->is_write() ? "load " + r.op->relation : r.op->query;
  return what + " -> " + r.summary.substr(0, 200);
}

bool QueryOk(const OpRecord& r, const Digest& expected) {
  return !r.error && r.digest == expected &&
         r.summary.find("\"partial\":false") != std::string::npos;
}

bool WriteOk(const OpRecord& r) {
  return !r.error && r.summary.find("\"changed\":" +
                                    std::to_string(r.op->rows.size()) +
                                    ",") != std::string::npos;
}

// The self-test's fault: one query answer read back wrong.
void CorruptOne(SocketRun* run) {
  for (auto& recs : run->window) {
    for (OpRecord& r : recs) {
      if (!r.op->is_write()) {
        r.digest.sum ^= 1;
        return;
      }
    }
  }
}

void Verify(const Workload& wl, SocketRun* run, bool corrupt_one,
            Verdict* v) {
  if (corrupt_one) CorruptOne(run);
  Oracle oracle(wl.edb);
  if (!wl.mutates) {
    // Read-only: every answer depends on its op alone.
    std::unordered_map<const Op*, Digest> expected;
    auto check = [&](const OpRecord& r) {
      auto it = expected.find(r.op.get());
      if (it == expected.end()) {
        it = expected.emplace(r.op.get(), oracle.Expect(*r.op)).first;
      }
      v->Check(QueryOk(r, it->second), Describe(r));
    };
    for (const OpRecord& r : run->warmup) check(r);
    for (const auto& recs : run->window) {
      for (const OpRecord& r : recs) check(r);
    }
    return;
  }

  // Mutating: replay the one mutator connection's ops through the oracle
  // in order, checking each answer against the state it ran on.
  std::vector<std::set<std::string>> subs;
  std::map<int64_t, size_t> sub_index;
  for (size_t i = 0; i < wl.subscriptions.size(); ++i) {
    auto tuples = oracle.Tuples(*wl.subscriptions[i]);
    subs.emplace_back(tuples.begin(), tuples.end());
    auto done = seprec::json::Parse(run->subscribed[i]);
    bool ok = done.ok() && done->Get("ok").as_bool() &&
              static_cast<size_t>(done->Get("answers").as_int(-1)) ==
                  subs.back().size();
    v->Check(ok, "subscribe " + wl.subscriptions[i]->query);
    if (done.ok()) sub_index[done->Get("subscription").as_int(-1)] = i;
  }
  auto step = [&](const OpRecord& r) {
    if (r.op->is_write()) {
      v->Check(WriteOk(r), Describe(r));
      oracle.Apply(*r.op);
    } else {
      v->Check(QueryOk(r, oracle.Expect(*r.op)), Describe(r));
    }
  };
  for (const OpRecord& r : run->warmup) step(r);
  for (const OpRecord& r : run->window[0]) step(r);

  // Each subscription's delta stream, folded onto its baseline, must end
  // at the oracle's final answer.
  bool deltas_ok = true;
  for (const auto& [t, line] : run->deltas) {
    auto d = seprec::json::Parse(line);
    if (!d.ok() || d->Get("ev").as_string() != "delta") {
      deltas_ok = false;
      continue;
    }
    auto it = sub_index.find(d->Get("subscription").as_int(-1));
    if (it == sub_index.end()) {
      deltas_ok = false;
      continue;
    }
    std::set<std::string>& s = subs[it->second];
    for (const auto& tup : d->Get("tuples").as_array()) {
      deltas_ok &= s.insert(tup.as_string()).second;
    }
    for (const auto& tup : d->Get("retracted").as_array()) {
      deltas_ok &= s.erase(tup.as_string()) == 1;
    }
  }
  v->Check(deltas_ok, "subscription delta stream");
  for (size_t i = 0; i < subs.size(); ++i) {
    auto tuples = oracle.Tuples(*wl.subscriptions[i]);
    v->Check(subs[i] == std::set<std::string>(tuples.begin(), tuples.end()),
             "folded deltas of " + wl.subscriptions[i]->query);
  }
  for (const OpRecord& r : run->durability) {
    Digest d;
    for (const std::string& t : oracle.Rows(r.op->relation)) d.Add(t);
    v->Check(QueryOk(r, d), "after restart: " + Describe(r));
  }
}

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Verdict& v,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload hot_reads|adhoc_queries|"
               "write_mix --seed N --seconds S --trace 0|1 --cli PATH "
               "[--corrupt-one]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atoi(value().c_str());
    else if (a == "--trace") o.trace = std::atoi(value().c_str());
    else if (a == "--cli") o.cli = value();
    else if (a == "--corrupt-one") o.corrupt_one = true;
    else return Usage();
  }
  Workload wl;
  if (o.cli.empty() || o.seconds < 1 || !MakeWorkload(o.workload, o.seed, &wl)) {
    return Usage();
  }
  const std::string run_dir = ".bench_run";
  const std::string base = run_dir + "/" + o.workload;
  fs::remove_all(base);
  fs::create_directories(base);
  std::string err;
  if (!PrepareDataDir(wl.edb, base + "/pristine", &err)) {
    std::fprintf(stderr, "perfbench: preparing the data dir: %s\n",
                 err.c_str());
    return 1;
  }

  SocketRun run;
  if (!RunSocket(o, wl, base, o.trace ? 1 : 5, &run, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 1;
  }
  Verdict verdict;
  Verify(wl, &run, o.corrupt_one, &verdict);

  std::vector<const OpRecord*> window;
  std::vector<double> query_us, write_us;
  std::map<int64_t, int64_t> write_start_by_gen;
  for (const auto& recs : run.window) {
    for (const OpRecord& r : recs) {
      window.push_back(&r);
      const double us = (r.end_ns - r.start_ns) / 1e3;
      if (r.op->is_write()) {
        write_us.push_back(us);
        auto ack = seprec::json::Parse(r.summary);
        if (ack.ok()) {
          write_start_by_gen[ack->Get("generation").as_int()] = r.start_ns;
        }
      } else {
        query_us.push_back(us);
      }
    }
  }
  std::sort(window.begin(), window.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return a->start_ns < b->start_ns;
            });
  const uint64_t ops = window.size();
  // The gated latency and throughput figures are medians over up to five
  // equal sub-windows (by op count), each holding at least 1,000 queries:
  // a burst of interference from outside the benchmark moves one of them,
  // not the median.
  const size_t chunks = std::clamp<size_t>(query_us.size() / 1000, 1, 5);
  std::vector<double> chunk_p50, chunk_p99, chunk_rate;
  for (size_t k = 0; k < chunks; ++k) {
    const size_t lo = ops * k / chunks;
    const size_t hi = ops * (k + 1) / chunks;
    std::vector<double> q;
    int64_t last_end = 0;
    for (size_t i = lo; i < hi; ++i) {
      last_end = std::max(last_end, window[i]->end_ns);
      if (!window[i]->op->is_write()) {
        q.push_back((window[i]->end_ns - window[i]->start_ns) / 1e3);
      }
    }
    chunk_p50.push_back(Percentile(q, 0.5));
    chunk_p99.push_back(Percentile(q, 0.99));
    chunk_rate.push_back((hi - lo) * 1e9 /
                         std::max<int64_t>(last_end - window[lo]->start_ns, 1));
  }
  // Notify latency: mutation written -> last delta of its generation read.
  std::map<int64_t, int64_t> last_delta_by_gen;
  for (const auto& [t, line] : run.deltas) {
    auto d = seprec::json::Parse(line);
    if (!d.ok()) continue;
    int64_t& last = last_delta_by_gen[d->Get("generation").as_int()];
    last = std::max(last, t);
  }
  std::vector<double> notify_us;
  for (const auto& [gen, start] : write_start_by_gen) {
    auto it = last_delta_by_gen.find(gen);
    if (it != last_delta_by_gen.end()) {
      notify_us.push_back((it->second - start) / 1e3);
    }
  }

  Oracle final_state(wl.edb);
  if (wl.mutates) {
    for (const OpRecord& r : run.warmup) {
      if (r.op->is_write()) final_state.Apply(*r.op);
    }
    for (const OpRecord& r : run.window[0]) {
      if (r.op->is_write()) final_state.Apply(*r.op);
    }
  }
  const double seconds = run.window_ns / 1e9;
  const double fail_ratio =
      static_cast<double>(verdict.failed) / std::max<uint64_t>(verdict.attempted, 1);
  // The gated metrics (BENCHMARK.json's end_to_end), then the rest of the
  // report. Latency and throughput are printed, not gated: on a shared VM
  // they move with the CPU time the hypervisor steals (run-to-run spreads
  // of 0.2 to 0.7 of the median at 10-24% steal, above the largest bound
  // allowed). The server's own CPU time per op leaves steal out. It is
  // taken per phase, and the gated figure is the mean of the middle six of
  // the ten phases: a burst from a co-tenant that slows one or two phases
  // moves the whole-window figure, not this one.
  double server_user_s = 0.0;
  double server_system_s = 0.0;
  std::vector<double> phase_us;
  for (const Phase& p : run.phases) {
    server_user_s += p.user_s;
    server_system_s += p.system_s;
    phase_us.push_back(p.UsPerOp());
  }
  std::sort(phase_us.begin(), phase_us.end());
  const size_t trim = phase_us.size() / 5;
  double middle_us = 0.0;
  for (size_t i = trim; i + trim < phase_us.size(); ++i) middle_us += phase_us[i];
  middle_us /= static_cast<double>(std::max<size_t>(phase_us.size() - 2 * trim, 1));
  std::vector<Metric> e2e = {
      {"server_cpu_us_per_op", middle_us, "us"},
      {"setup_s", Median(run.setup_s), "s"},
      {"peak_rss_mb", run.rss_mb, "MB"},
      {"space_amp",
       static_cast<double>(run.dir_bytes) / final_state.TsvBytes(), "ratio"},
  };
  std::vector<Metric> shown = e2e;
  shown.push_back({"query_p50_us", Median(chunk_p50), "us"});
  if (query_us.size() >= 1000) {
    shown.push_back({"query_p99_us", Median(chunk_p99), "us"});
  }
  shown.push_back({"ops_per_s", Median(chunk_rate), "1/s"});
  if (!write_us.empty()) {
    shown.push_back({"write_p50_us", Percentile(write_us, 0.5), "us"});
    if (write_us.size() >= 1000) {
      shown.push_back({"write_p99_us", Percentile(write_us, 0.99), "us"});
    }
  }
  if (!notify_us.empty()) {
    shown.push_back({"notify_p50_us", Percentile(notify_us, 0.5), "us"});
  }
  shown.push_back({"fail_ratio", fail_ratio, "ratio"});

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d loop=closed "
              "connections=%d subscribers=%zu edb_rows=%zu fsync=%s "
              "checkpoint_bytes=%llu\n",
              wl.name.c_str(), static_cast<unsigned long long>(wl.seed),
              o.seconds, o.trace, wl.connections, wl.subscriptions.size(),
              wl.edb.Rows(), wl.fsync.c_str(),
              static_cast<unsigned long long>(wl.checkpoint_bytes));
  for (const Metric& m : shown) {
    std::printf("  %-14s %14.3f %-5s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  samples: queries=%zu writes=%zu notifies=%zu setups=%zu "
              "sub-windows=%zu window_s=%.3f checkpoints=%d\n",
              query_us.size(), write_us.size(), notify_us.size(),
              run.setup_s.size(), chunks, seconds, run.checkpoints);
  std::printf("  whole window: query_p50_us=%.1f ops_per_s=%.1f",
              Percentile(query_us, 0.5), ops / seconds);
  if (query_us.size() >= 1000) {
    std::printf(" query_p99_us=%.1f", Percentile(query_us, 0.99));
  }
  std::printf("\n");
  std::vector<std::vector<double>> tenths(10);
  for (const OpRecord* r : window) {
    if (r->op->is_write()) continue;
    tenths[std::min<int64_t>(9, r->start_ns * 10 /
                                    std::max<int64_t>(run.window_ns, 1))]
        .push_back((r->end_ns - r->start_ns) / 1e3);
  }
  const double drift_first = Percentile(tenths.front(), 0.5);
  const double drift_last = Percentile(tenths.back(), 0.5);
  std::printf("  drift query_p50_us first_tenth=%.1f last_tenth=%.1f "
              "change=%+.1f%% (per tenth:",
              drift_first, drift_last,
              drift_first > 0 ? 100.0 * (drift_last / drift_first - 1) : 0.0);
  for (const auto& t : tenths) std::printf(" %.0f", Percentile(t, 0.5));
  std::printf(")\n");
  std::printf("  loadgen cpu_s_per_1000_ops=%.4f (cpu_s=%.3f ops=%llu)\n",
              ops > 0 ? 1000.0 * run.cpu_s / ops : 0.0, run.cpu_s,
              static_cast<unsigned long long>(ops));
  std::printf("  host steal during the window: %.1f%% of all CPU time\n",
              100.0 * run.steal_share);
  std::printf("  server cpu whole window: us_per_op=%.1f (user %.1f, system "
              "%.1f); per phase:",
              (server_user_s + server_system_s) * 1e6 / std::max<uint64_t>(ops, 1),
              server_user_s * 1e6 / std::max<uint64_t>(ops, 1),
              server_system_s * 1e6 / std::max<uint64_t>(ops, 1));
  for (const Phase& p : run.phases) std::printf(" %.0f", p.UsPerOp());
  std::printf("\n");
  for (const std::string& ex : verdict.examples) {
    std::printf("  FAILED %s\n", ex.c_str());
  }

  bool correct = verdict.failed == 0;
  if (o.trace == 0) {
    PrintResult(correct, verdict, e2e);
    fs::remove_all(base);
    return correct ? 0 : 1;
  }

  ReplayInput in;
  in.workload = &wl;
  in.warmup = &run.warmup;
  in.window = &run.window;
  in.pristine_dir = base + "/pristine";
  in.work_dir = base + "/replay";
  in.spans_path = run_dir + "/" + o.workload + ".spans.tsv";
  in.socket_query_p50_us = Percentile(query_us, 0.5);
  // The replay regenerates nothing: it re-sends exactly the recorded ops.
  ReplayResult rr;
  if (!RunReplay(in, &rr, &err)) {
    std::fprintf(stderr, "perfbench: replay: %s\n", err.c_str());
    return 1;
  }
  for (const std::string& line : rr.report) std::printf("  %s\n", line.c_str());
  for (const std::string& v : rr.violations) {
    std::printf("  PATH ASSERTION FAILED: %s\n", v.c_str());
  }
  std::vector<Metric> layers;
  for (const auto& [name, unit] : LayerMetrics()) {
    layers.push_back({name, rr.metrics[name], unit});
  }
  correct = correct && rr.violations.empty();
  PrintResult(correct, verdict, layers);
  fs::remove_all(base);
  return correct ? 0 : 1;
}
