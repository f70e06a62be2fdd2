#include "util/failpoint.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/string_util.h"

namespace seprec {
namespace {

// The canonical site list. Adding an injection site to production code
// means adding its name here; Arm rejects unknown names so a typo in a
// test fails loudly instead of silently never firing.
const std::vector<std::string_view>& RegisteredSites() {
  static const std::vector<std::string_view> sites = {
      "io.load_tsv",         // LoadRelationTsv, per data line
      "io.save_tsv",         // SaveRelationTsv, before writing
      "snapshot.load",       // LoadSnapshotV3File, before opening the file
      "snapshot.save",       // SaveSnapshotV3File, before writing the pages
      "snapshot.write",      // SaveSnapshotV3File, before opening the temp file
      "snapshot.rename",     // SaveSnapshotV3File, temp durable, before rename
      "wal.open",            // WalWriter::Open, before open/create
      "wal.append",          // WalWriter::Append, before the record write
      "wal.fsync",           // WalWriter sync, record written, before fsync
      "wal.truncate",        // TruncateWal, before dropping the torn tail
      "manifest.write",      // SaveManifest, before writing the temp file
      "manifest.rename",     // SaveManifest, temp durable, before rename
      "governor.poll",       // ExecutionContext::ShouldStop -> cancellation
      "governor.charge",     // MemoryAccountant::Charge -> allocation spike
      "compiler.separable",  // QueryProcessor dispatch of the Separable engine
      "compiler.magic",      // QueryProcessor dispatch of the Magic engine
  };
  return sites;
}

struct SiteState {
  bool armed = false;
  FailpointSpec spec;
  size_t evaluations = 0;  // since last Arm
  size_t fires = 0;        // injected failures since last Arm
};

struct Registry {
  std::mutex mu;
  std::map<std::string, SiteState, std::less<>> states;  // guarded by mu
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: alive for process lifetime
  return *r;
}

// Fast-path gate: number of currently armed sites, plus one if
// SEPREC_FAILPOINTS=ON forces the slow path.
std::atomic<int> active_count{0};
std::once_flag env_once;

void ArmLocked(Registry& r, std::string_view site, FailpointSpec spec) {
  SiteState& state = r.states[std::string(site)];
  if (!state.armed) active_count.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.spec = std::move(spec);
  state.evaluations = 0;
  state.fires = 0;
}

void LoadEnvironment() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once under call_once before
  // any worker thread can touch the registry; nothing in-process setenv()s.
  const char* env = std::getenv("SEPREC_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  std::string value = env;
  if (value == "ON" || value == "on" || value == "1") {
    // Keep the registry's slow path exercised without arming anything.
    active_count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const std::string& entry : StrSplit(value, ',')) {
    if (entry.empty()) continue;
    std::vector<std::string> parts = StrSplit(entry, ':');
    if (!Failpoints::IsRegistered(parts[0])) continue;
    FailpointSpec spec;
    size_t next = 1;
    if (parts.size() > next && parts[next] == "crash") {
      spec.crash = true;
      ++next;
    }
    if (parts.size() > next) {
      spec.skip = std::strtoull(parts[next++].c_str(), nullptr, 10);
    }
    if (parts.size() > next) {
      spec.count = std::strtoull(parts[next].c_str(), nullptr, 10);
    }
    ArmLocked(r, parts[0], std::move(spec));
  }
}

void EnsureEnvironmentLoaded() {
  std::call_once(env_once, LoadEnvironment);
}

// Returns true (and fills *spec_out) when the armed site is due to fire.
bool Evaluate(std::string_view site, FailpointSpec* spec_out) {
  EnsureEnvironmentLoaded();
  if (active_count.load(std::memory_order_relaxed) == 0) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.states.find(site);
  if (it == r.states.end() || !it->second.armed) return false;
  SiteState& state = it->second;
  size_t evaluation = state.evaluations++;
  if (evaluation < state.spec.skip) return false;
  if (state.fires >= state.spec.count) return false;
  ++state.fires;
  *spec_out = state.spec;
  if (state.spec.crash) {
    // kill -9 stand-in: no flushing, no destructors — user-space
    // buffered bytes die with the process exactly as they would under a
    // real SIGKILL at this boundary.
    std::_Exit(kCrashExitCode);
  }
  return true;
}

}  // namespace

void Failpoints::Arm(std::string_view site, FailpointSpec spec) {
  SEPREC_CHECK(IsRegistered(site));
  EnsureEnvironmentLoaded();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ArmLocked(r, site, std::move(spec));
}

void Failpoints::Disarm(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.states.find(site);
  if (it == r.states.end() || !it->second.armed) return;
  it->second.armed = false;
  active_count.fetch_sub(1, std::memory_order_relaxed);
}

void Failpoints::DisarmAll() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [site, state] : r.states) {
    if (state.armed) {
      state.armed = false;
      active_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

size_t Failpoints::FireCount(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.states.find(site);
  return it == r.states.end() ? 0 : it->second.fires;
}

const std::vector<std::string_view>& Failpoints::Sites() {
  return RegisteredSites();
}

bool Failpoints::IsRegistered(std::string_view site) {
  for (std::string_view s : RegisteredSites()) {
    if (s == site) return true;
  }
  return false;
}

Status Failpoints::Check(std::string_view site) {
  FailpointSpec spec;
  if (!Evaluate(site, &spec)) return Status::OK();
  std::string message = spec.message.empty()
                            ? StrCat("injected failure at ", site)
                            : spec.message;
  return Status(spec.code, std::move(message));
}

bool Failpoints::Hit(std::string_view site) {
  FailpointSpec spec;
  return Evaluate(site, &spec);
}

}  // namespace seprec
