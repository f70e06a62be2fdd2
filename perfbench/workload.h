// Seeded workloads for the serve benchmark: the generated EDB, the op
// streams each connection sends, and the independent answer oracle the
// load generator checks every reply against.
//
// Everything here is a pure function of the seed. The oracle never calls
// into seprec: it answers each program family by plain graph walks over
// the generated rows (BFS for the separable families, a nested loop for
// same-generation, the exit relation for the bounded family).
#ifndef SEPREC_PERFBENCH_WORKLOAD_H_
#define SEPREC_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Pair = std::pair<std::string, std::string>;

// Every generated relation is binary except `blocked`, whose rows leave
// `second` empty.
struct Edb {
  std::map<std::string, std::vector<Pair>> relations;
  size_t Rows() const;
};

// The program families a request can come from. The family names the
// oracle that answers it.
enum class Family {
  kTc,         // right-linear transitive closure over `edge` (separable)
  kTcLeft,     // left-linear transitive closure (separable, constant anchor)
  kBuys11,     // the paper's Example 1.1 (separable)
  kBuys12,     // the paper's Example 1.2 (separable, two classes)
  kContains,   // bill of materials over `part_of` (separable)
  kSameGen,    // same-generation over up/down/flat (routed to Magic)
  kBounded,    // bounded recursion (de-recursed to a nonrecursive plan)
  kRoute,      // reachability over the mutable `link` relation
  kOpenRoute,  // reachability avoiding `blocked` nodes (negation in a body)
  kDump,       // every row of one relation (the durability check)
};

struct Op {
  enum Kind { kQuery, kInsert, kDelete };
  Kind kind = kQuery;
  Family family = Family::kTc;
  std::string program;   // query ops: rules only, no facts
  std::string query;     // query ops: the atom, e.g. "tc(e3_7, Y)"
  std::string constant;  // query ops: the selection constant
  std::string relation;  // write ops
  std::vector<Pair> rows;  // write ops
  // The request line minus its id: Line(id) = head + id + tail.
  std::string tail;

  bool is_write() const { return kind != kQuery; }
  std::string Line(int64_t id) const;
  // The same request as a subscribe op.
  std::string SubscribeLine(int64_t id) const;
};
using OpPtr = std::shared_ptr<const Op>;

// Order-independent answer digest: the sum of a 64-bit hash of every
// rendered tuple, plus the tuple count.
uint64_t TupleHash(std::string_view tuple);
struct Digest {
  uint64_t sum = 0;
  uint64_t count = 0;
  void Add(std::string_view tuple) {
    sum += TupleHash(tuple);
    ++count;
  }
  bool operator==(const Digest& o) const {
    return sum == o.sum && count == o.count;
  }
};

// A connection's deterministic op stream.
using Stream = std::function<OpPtr()>;

struct Workload {
  std::string name;
  uint64_t seed = 0;
  Edb edb;
  int connections = 1;  // connections sending queries/writes
  bool mutates = false;  // sends writes (checked in order, then restarted)
  std::vector<OpPtr> subscriptions;  // held on one extra connection
  std::vector<OpPtr> warmup;         // sent on connection 0 before timing
  // Then every connection sends its list at once, so each server session
  // is warm too (empty for single-connection workloads).
  std::vector<std::vector<OpPtr>> concurrent_warmup;
  std::vector<Stream> streams;       // one per connection
  // The timed window sends ops_per_second * --seconds ops, split evenly
  // over the connections: a fixed op sequence, so every commit times the
  // same work. The rate is today's throughput on a 4-core host, so a
  // window lasts about --seconds.
  uint64_t ops_per_second = 0;
  // serve flags beyond --data-dir.
  std::string fsync = "always";
  uint64_t checkpoint_bytes = 64ull << 20;
};

// A query listing every row of `relation` (the durability check).
OpPtr DumpQuery(const std::string& relation, bool unary);

// Builds workload `name` ("hot_reads", "adhoc_queries", "write_mix") from
// `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The answer oracle over a mutable copy of the EDB.
class Oracle {
 public:
  explicit Oracle(const Edb& edb);

  // The rendered answer tuples of query op `op` on the current state.
  std::vector<std::string> Tuples(const Op& op) const;
  Digest Expect(const Op& op) const;
  // Applies a write op to the state.
  void Apply(const Op& op);

  // Rendered tuples of the current `relation` rows (as the kDump program
  // answers them).
  std::vector<std::string> Rows(const std::string& relation) const;
  // Bytes of the live EDB written as TSV.
  uint64_t TsvBytes() const;

 private:
  using Adj = std::unordered_map<std::string, std::vector<std::string>>;
  const std::vector<std::string>& Out(const std::string& rel,
                                      const std::string& node) const;
  const std::vector<std::string>& In(const std::string& rel,
                                     const std::string& node) const;
  // Nodes reachable from `start` (inclusive) over the union of `rels`.
  std::vector<std::string> Reach(const std::vector<std::string>& rels,
                                 const std::string& start) const;
  // Every relation as a set (write_mix changes `link`).
  std::map<std::string, std::set<Pair>> rows_;
  std::map<std::string, Adj> out_;
  std::map<std::string, Adj> in_;
};

}  // namespace perfbench

#endif  // SEPREC_PERFBENCH_WORKLOAD_H_
