// Heap allocations of a served closure hit must not grow with its answer.
//
// This binary replaces the global operator new with a counting one, so it
// stays a test binary of its own. A closure hit seeds seen_1 from the
// cached closure, runs the exit rule, and renders the answer: every step
// is O(answer) in tuples, and none of them may cost a heap allocation per
// tuple (a set node, a staged row copy, a harvested row vector, a rendered
// value's stream). Counts that differ by less than the allowance across a
// 10x larger answer can only come from buffers growing geometrically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "server/service.h"
#include "storage/database.h"
#include "util/string_util.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seprec {
namespace {

// Right-linear transitive closure: a query binding X anchors on X's
// class, so phase 1 walks the whole chain (the part a closure hit skips)
// and the exit rule yields one answer per reachable node.
constexpr const char* kTcProgram =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

struct HitCount {
  size_t allocations = 0;
  size_t answers = 0;
};

// Loads the chain v0 -> v1 -> ... -> v<edges>, runs tc(v0, Y) once to
// store its closure, and counts the allocations of the closure hit that
// follows.
HitCount ClosureHitAllocations(int edges) {
  Database db;
  QueryService service(&db);
  std::ostringstream tsv;
  for (int i = 0; i < edges; ++i) {
    tsv << "v" << i << "\tv" << (i + 1) << "\n";
  }
  std::istringstream in(tsv.str());
  EXPECT_TRUE(service.LoadTsv("edge", in).ok());

  ServiceRequest request;
  request.program = kTcProgram;
  request.query = "tc(v0, Y)";
  auto cold = service.Execute(request);
  EXPECT_TRUE(cold.ok());
  EXPECT_TRUE((*cold)[0].closure_stored);

  const size_t before = g_allocations.load();
  auto hit = service.Execute(request);
  const size_t after = g_allocations.load();
  EXPECT_TRUE(hit.ok());
  EXPECT_TRUE((*hit)[0].closure_cache_hit);
  return HitCount{after - before, (*hit)[0].tuples.size()};
}

TEST(Allocations, ClosureHitDoesNotAllocatePerAnswer) {
  const HitCount small = ClosureHitAllocations(200);
  const HitCount large = ClosureHitAllocations(2000);
  EXPECT_EQ(small.answers, 200u);
  EXPECT_EQ(large.answers, 2000u);
  // Geometric growth of the few per-request buffers accounts for a
  // handful of allocations per 10x; one allocation per answer would add
  // 1,800.
  const size_t diff = large.allocations > small.allocations
                          ? large.allocations - small.allocations
                          : small.allocations - large.allocations;
  EXPECT_LT(diff, 100u) << "closure hit allocated " << small.allocations
                        << " times for 200 answers and "
                        << large.allocations << " times for 2000";
}

}  // namespace
}  // namespace seprec
