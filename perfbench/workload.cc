#include "workload.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace perfbench {

namespace {

// Sizes of the generated EDB (about 230k rows in all).
constexpr int kEdgeLayers = 40;   // layered DAG: edge(e<l>_<k>, e<l+1>_*)
constexpr int kEdgeWidth = 250;
constexpr int kEdgeFanout = 4;
constexpr int kPeopleLayers = 20;  // friend/idol over p<l>_<k>
constexpr int kPeopleWidth = 200;
constexpr int kProducts = 3000;    // g<k>, in cheaper chains of 8
constexpr int kCheaperChain = 8;
constexpr int kPartTrees = 14;     // part_of: 4-ary trees of depth 6
constexpr int kPartFanout = 4;
constexpr int kPartDepth = 6;
constexpr int kSgTrees = 40;       // up/down: 3-ary trees of depth 6
constexpr int kSgFanout = 3;
constexpr int kSgDepth = 6;
constexpr int kFlatPairs = 1500;
constexpr int kLinkTrees = 64;     // link: random recursive trees
constexpr int kLinkTreeNodes = 64;

// splitmix64: every stream derives its own generator from (seed, salt).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  Rng(uint64_t seed, uint64_t salt) : state_(Mix(seed ^ Mix(salt))) {}
  uint64_t Next() { return Mix(state_++); }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

std::string Name(const char* prefix, int a, int b) {
  std::string s = prefix;
  s += std::to_string(a);
  s += '_';
  s += std::to_string(b);
  return s;
}
std::string EdgeNode(int layer, int k) { return Name("e", layer, k); }
std::string Person(int layer, int k) { return Name("p", layer, k); }
std::string Product(int k) {
  std::string s = "g";  // appended, not "g" + ...: GCC 12 -Wrestrict
  s += std::to_string(k);
  return s;
}
std::string Part(int tree, int k) { return Name("m", tree, k); }
std::string SgNode(int tree, int k) { return Name("s", tree, k); }
std::string LinkNode(int tree, int k) {
  return "t" + std::to_string(tree) + "n" + std::to_string(k);
}

// Heap-numbered complete trees: node k's children are f*k+1 .. f*k+f.
int FirstAtDepth(int fanout, int depth) {
  int first = 0;
  int width = 1;
  for (int d = 0; d < depth; ++d) {
    first += width;
    width *= fanout;
  }
  return first;
}
int TreeNodes(int fanout, int depth) {
  return FirstAtDepth(fanout, depth + 1);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

const char* kTcRules[] = {"tc(X, Y) :- edge(X, W) & tc(W, Y).",
                          "tc(X, Y) :- edge(X, Y)."};
const char* kTcLeftRules[] = {"tc(X, Y) :- tc(X, W) & edge(W, Y).",
                              "tc(X, Y) :- edge(X, Y)."};
const char* kBuys11Rules[] = {"buys(X, Y) :- friend(X, W) & buys(W, Y).",
                              "buys(X, Y) :- idol(X, W) & buys(W, Y).",
                              "buys(X, Y) :- perfectFor(X, Y)."};
const char* kBuys12Rules[] = {"buys(X, Y) :- friend(X, W) & buys(W, Y).",
                              "buys(X, Y) :- buys(X, W) & cheaper(Y, W).",
                              "buys(X, Y) :- perfectFor(X, Y)."};
const char* kContainsRules[] = {
    "contains(X, Y) :- part_of(X, Y).",
    "contains(X, Y) :- part_of(X, W) & contains(W, Y)."};
const char* kSameGenRules[] = {
    "sg(X, Y) :- flat(X, Y).", "sg(X, Y) :- up(X, W) & sg(W, V) & down(V, Y)."};
const char* kBoundedRules[] = {
    "bt(X, Y) :- edge(X, Y).", "bt(X, Y) :- edge(X, W) & bt(W, Y) & edge(X, Y)."};
const char* kRouteRules[] = {"route(X, Y) :- link(X, Y).",
                             "route(X, Y) :- link(X, W) & route(W, Y)."};
const char* kOpenRouteRules[] = {
    "open_route(X, Y) :- link(X, Y), not blocked(Y).",
    "open_route(X, Y) :- link(X, W), not blocked(W), open_route(W, Y)."};

struct FamilyText {
  const char* const* rules;
  size_t count;
  const char* predicate;
  bool constant_first;  // selection binds column 0 (else column 1)
};

FamilyText TextOf(Family f) {
  switch (f) {
    case Family::kTc: return {kTcRules, 2, "tc", true};
    case Family::kTcLeft: return {kTcLeftRules, 2, "tc", true};
    case Family::kBuys11: return {kBuys11Rules, 3, "buys", true};
    case Family::kBuys12: return {kBuys12Rules, 3, "buys", true};
    case Family::kContains: return {kContainsRules, 2, "contains", false};
    case Family::kSameGen: return {kSameGenRules, 2, "sg", true};
    case Family::kBounded: return {kBoundedRules, 2, "bt", true};
    case Family::kRoute: return {kRouteRules, 2, "route", true};
    case Family::kOpenRoute: return {kOpenRouteRules, 2, "open_route", true};
    case Family::kDump: break;
  }
  return {nullptr, 0, "lk", true};
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = 0; (pos = s->find(from, pos)) != std::string::npos;
       pos += to.size()) {
    s->replace(pos, from.size(), to);
  }
}

void Finish(Op* op, const std::string& predicate, bool constant_first) {
  op->query = constant_first
                  ? predicate + "(" + op->constant + ", Y)"
                  : predicate + "(X, " + op->constant + ")";
  op->tail = ",\"op\":\"query\",\"program\":\"" + JsonEscape(op->program) +
             "\",\"query\":\"" + op->query + "\"}\n";
}

// A query op of `family` as the hot workloads send it: the family's rules
// verbatim, so every selection of a family shares one cached program.
OpPtr HotQuery(Family family, const std::string& constant) {
  auto op = std::make_shared<Op>();
  op->family = family;
  op->constant = constant;
  FamilyText t = TextOf(family);
  for (size_t i = 0; i < t.count; ++i) {
    op->program += t.rules[i];
    op->program += '\n';
  }
  Finish(op.get(), t.predicate, t.constant_first);
  return op;
}

// A never-seen program text of `family`: a request-numbered comment,
// shuffled rule order, renamed variables, and (when `fresh`) a predicate
// name of its own.
OpPtr AdhocQuery(Family family, const std::string& constant, uint64_t index,
                 bool fresh, Rng* rng) {
  auto op = std::make_shared<Op>();
  op->family = family;
  op->constant = constant;
  FamilyText t = TextOf(family);
  std::vector<std::string> rules(t.rules, t.rules + t.count);
  for (size_t i = rules.size(); i > 1; --i) {
    std::swap(rules[i - 1], rules[rng->Below(i)]);
  }
  std::string predicate = t.predicate;
  if (fresh) predicate += "_r" + std::to_string(index);
  static const char* kVars[] = {"A", "B", "C", "D", "F", "G", "H", "K",
                                "M", "N", "P", "Q", "R", "S", "T", "Z"};
  std::vector<std::string> vars(kVars, kVars + 16);
  for (size_t i = vars.size(); i > 1; --i) {
    std::swap(vars[i - 1], vars[rng->Below(i)]);
  }
  op->program = "% adhoc request " + std::to_string(index) + "\n";
  for (std::string rule : rules) {
    // Rename through placeholders so a new name never collides with an
    // old one still to be replaced.
    ReplaceAll(&rule, "X", "#0");
    ReplaceAll(&rule, "Y", "#1");
    ReplaceAll(&rule, "W", "#2");
    ReplaceAll(&rule, "V", "#3");
    for (int v = 0; v < 4; ++v) {
      ReplaceAll(&rule, "#" + std::to_string(v), vars[v]);
    }
    if (fresh) {
      ReplaceAll(&rule, std::string(t.predicate) + "(", predicate + "(");
    }
    op->program += rule;
    op->program += '\n';
  }
  Finish(op.get(), predicate, t.constant_first);
  return op;
}

OpPtr WriteOp(Op::Kind kind, const std::string& relation,
              std::vector<Pair> rows) {
  auto op = std::make_shared<Op>();
  op->kind = kind;
  op->relation = relation;
  op->rows = std::move(rows);
  std::string tail = ",\"op\":\"load\",\"relation\":\"" + relation + "\",";
  if (kind == Op::kDelete) tail += "\"mode\":\"delete\",";
  tail += "\"rows\":[";
  for (size_t i = 0; i < op->rows.size(); ++i) {
    if (i > 0) tail += ',';
    tail += "[\"" + op->rows[i].first + "\"";
    if (!op->rows[i].second.empty()) tail += ",\"" + op->rows[i].second + "\"";
    tail += ']';
  }
  tail += "]}\n";
  op->tail = std::move(tail);
  return op;
}

// ---- EDB ----------------------------------------------------------------

struct Generated {
  Edb edb;
  std::vector<int> flat_sources;  // tree * nodes + node, per flat row
};

void GenerateEdb(uint64_t seed, Generated* g) {
  Rng rng(seed, 1);
  auto& rel = g->edb.relations;
  auto& edge = rel["edge"];
  for (int l = 0; l + 1 < kEdgeLayers; ++l) {
    for (int k = 0; k < kEdgeWidth; ++k) {
      std::set<size_t> targets;
      while (targets.size() < kEdgeFanout) targets.insert(rng.Below(kEdgeWidth));
      for (size_t t : targets) {
        edge.emplace_back(EdgeNode(l, k), EdgeNode(l + 1, static_cast<int>(t)));
      }
    }
  }
  auto& friend_rel = rel["friend"];
  auto& idol = rel["idol"];
  auto& perfect = rel["perfectFor"];
  for (int l = 0; l < kPeopleLayers; ++l) {
    for (int k = 0; k < kPeopleWidth; ++k) {
      if (l + 1 < kPeopleLayers) {
        size_t a = rng.Below(kPeopleWidth);
        size_t b = (a + 1 + rng.Below(kPeopleWidth - 1)) % kPeopleWidth;
        friend_rel.emplace_back(Person(l, k), Person(l + 1, static_cast<int>(a)));
        friend_rel.emplace_back(Person(l, k), Person(l + 1, static_cast<int>(b)));
      }
      if (l + 2 < kPeopleLayers) {
        idol.emplace_back(Person(l, k),
                          Person(l + 2, static_cast<int>(rng.Below(kPeopleWidth))));
      }
      perfect.emplace_back(Person(l, k),
                           Product(static_cast<int>(rng.Below(kProducts))));
    }
  }
  auto& cheaper = rel["cheaper"];
  for (int k = 0; k < kProducts; ++k) {
    if (k % kCheaperChain != 0) cheaper.emplace_back(Product(k - 1), Product(k));
  }
  auto& part_of = rel["part_of"];
  const int part_nodes = TreeNodes(kPartFanout, kPartDepth);
  for (int t = 0; t < kPartTrees; ++t) {
    for (int k = 1; k < part_nodes; ++k) {
      part_of.emplace_back(Part(t, k), Part(t, (k - 1) / kPartFanout));
    }
  }
  auto& up = rel["up"];
  auto& down = rel["down"];
  const int sg_nodes = TreeNodes(kSgFanout, kSgDepth);
  for (int t = 0; t < kSgTrees; ++t) {
    for (int k = 1; k < sg_nodes; ++k) {
      int parent = (k - 1) / kSgFanout;
      up.emplace_back(SgNode(t, k), SgNode(t, parent));
      down.emplace_back(SgNode(t, parent), SgNode(t, k));
    }
  }
  auto& flat = rel["flat"];
  std::set<std::pair<int, int>> seen;
  while (static_cast<int>(flat.size()) < kFlatPairs) {
    int depth = 4 + static_cast<int>(rng.Below(kSgDepth - 3));
    int first = FirstAtDepth(kSgFanout, depth);
    int width = FirstAtDepth(kSgFanout, depth + 1) - first;
    int ta = static_cast<int>(rng.Below(kSgTrees));
    int tb = static_cast<int>(rng.Below(kSgTrees));
    int a = first + static_cast<int>(rng.Below(width));
    int b = first + static_cast<int>(rng.Below(width));
    int ida = ta * sg_nodes + a;
    int idb = tb * sg_nodes + b;
    if (ida == idb || !seen.emplace(ida, idb).second) continue;
    flat.emplace_back(SgNode(ta, a), SgNode(tb, b));
    g->flat_sources.push_back(ida);
  }
  auto& link = rel["link"];
  auto& blocked = rel["blocked"];
  for (int t = 0; t < kLinkTrees; ++t) {
    for (int k = 1; k < kLinkTreeNodes; ++k) {
      link.emplace_back(LinkNode(t, static_cast<int>(rng.Below(k))),
                        LinkNode(t, k));
      if (rng.Below(20) == 0) blocked.emplace_back(LinkNode(t, k), "");
    }
  }
}

// ---- workloads ------------------------------------------------------------

// Sixteen selections of `family` whose answer sizes climb a fixed ladder
// from about 20 to about 2,000 tuples: the seed changes the graph and the
// constants, not the size mix. `draw` yields a constant at `level` (a
// layer or tree depth); each rung takes the closest of a few constants
// drawn at the levels whose answers are nearest in size.
std::vector<OpPtr> SizeLadder(Family family, int levels,
                              const std::function<std::string(int)>& draw,
                              const Oracle& oracle) {
  auto size_of = [&](const OpPtr& op) {
    return static_cast<double>(oracle.Tuples(*op).size());
  };
  auto distance = [](double size, double target) {
    return std::fabs(std::log(size + 1.0) - std::log(target));
  };
  std::vector<double> level_size(levels);
  for (int l = 0; l < levels; ++l) {
    for (int k = 0; k < 3; ++k) level_size[l] += size_of(HotQuery(family, draw(l))) / 3;
  }
  std::vector<OpPtr> out;
  for (int i = 0; i < 16; ++i) {
    const double target = 20.0 * std::pow(100.0, i / 15.0);
    int level = 0;
    for (int l = 1; l < levels; ++l) {
      if (distance(level_size[l], target) < distance(level_size[level], target)) {
        level = l;
      }
    }
    OpPtr best;
    double best_distance = 0;
    for (int l = std::max(0, level - 1); l <= std::min(levels - 1, level + 1); ++l) {
      for (int k = 0; k < 6; ++k) {
        OpPtr op = HotQuery(family, draw(l));
        const double d = distance(size_of(op), target);
        if (best == nullptr || d < best_distance) {
          best = op;
          best_distance = d;
        }
      }
    }
    out.push_back(best);
  }
  return out;
}

void MakeHotReads(uint64_t seed, const Generated& g, Workload* w) {
  Rng rng(seed, 2);
  const Oracle oracle(g.edb);
  std::vector<OpPtr> selections;
  auto add = [&](std::vector<OpPtr> ladder) {
    selections.insert(selections.end(), ladder.begin(), ladder.end());
  };
  add(SizeLadder(Family::kTc, kEdgeLayers - 1, [&](int l) {
    return EdgeNode(l, static_cast<int>(rng.Below(kEdgeWidth)));
  }, oracle));
  for (Family f : {Family::kBuys11, Family::kBuys12}) {
    add(SizeLadder(f, kPeopleLayers, [&](int l) {
      return Person(l, static_cast<int>(rng.Below(kPeopleWidth)));
    }, oracle));
  }
  add(SizeLadder(Family::kContains, kPartDepth, [&](int depth) {
    int first = FirstAtDepth(kPartFanout, depth);
    int width = FirstAtDepth(kPartFanout, depth + 1) - first;
    return Part(static_cast<int>(rng.Below(kPartTrees)),
                first + static_cast<int>(rng.Below(width)));
  }, oracle));
  w->connections = 2;
  w->ops_per_second = 700;
  w->warmup = selections;  // every selection once: all caches filled
  for (int c = 0; c < w->connections; ++c) {
    auto r = std::make_shared<Rng>(seed, 100 + c);
    w->streams.push_back(
        [r, selections] { return selections[r->Below(selections.size())]; });
  }
  w->concurrent_warmup.resize(w->connections);
  for (int c = 0; c < w->connections; ++c) {
    for (int i = 0; i < 128; ++i) {
      w->concurrent_warmup[c].push_back(w->streams[c]());
    }
  }
}

void MakeAdhoc(uint64_t seed, const Generated& g, Workload* w) {
  // Small-answer constant pools, each walked in a seeded order.
  struct Pool {
    std::vector<std::string> items;
    size_t next = 0;
    const std::string& Take() { return items[next++ % items.size()]; }
  };
  auto pools = std::make_shared<std::map<Family, Pool>>();
  Rng rng(seed, 3);
  auto shuffle = [&rng](std::vector<std::string>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
    }
  };
  std::vector<std::string> late_edge;
  for (int l = kEdgeLayers - 6; l < kEdgeLayers - 1; ++l) {
    for (int k = 0; k < kEdgeWidth; ++k) late_edge.push_back(EdgeNode(l, k));
  }
  for (Family f : {Family::kTc, Family::kTcLeft, Family::kBounded}) {
    (*pools)[f].items = late_edge;
    shuffle(&(*pools)[f].items);
  }
  for (int l = kPeopleLayers - 4; l < kPeopleLayers; ++l) {
    for (int k = 0; k < kPeopleWidth; ++k) {
      (*pools)[Family::kBuys11].items.push_back(Person(l, k));
    }
  }
  shuffle(&(*pools)[Family::kBuys11].items);
  for (int t = 0; t < kPartTrees; ++t) {
    for (int k = FirstAtDepth(kPartFanout, 3);
         k < FirstAtDepth(kPartFanout, kPartDepth); ++k) {
      (*pools)[Family::kContains].items.push_back(Part(t, k));
    }
  }
  shuffle(&(*pools)[Family::kContains].items);
  // Same-generation: leaves under a flat endpoint, so answers are nonempty.
  const int sg_nodes = TreeNodes(kSgFanout, kSgDepth);
  const int leaf_first = FirstAtDepth(kSgFanout, kSgDepth);
  for (size_t i = 0; i < 4000; ++i) {
    const int ida = g.flat_sources[rng.Below(g.flat_sources.size())];
    int node = ida % sg_nodes;
    while (node < leaf_first) {
      node = node * kSgFanout + 1 + static_cast<int>(rng.Below(kSgFanout));
    }
    (*pools)[Family::kSameGen].items.push_back(SgNode(ida / sg_nodes, node));
  }

  w->connections = 1;
  w->ops_per_second = 150;
  auto r = std::make_shared<Rng>(seed, 200);
  auto index = std::make_shared<uint64_t>(0);
  // Requests come in blocks of 24 in a seeded order: each of the six
  // families (four separable, one Magic-routed, one de-recursed) four
  // times, once of them with a fresh predicate. Every family then has the
  // same share, and 1 in 4 requests a fresh predicate, in every block, so
  // the seed changes which texts and constants are sent but not how many
  // of each kind: the catalog a fresh predicate leaves behind grows by the
  // same relations under every seed.
  auto block = std::make_shared<std::vector<std::pair<Family, bool>>>();
  w->streams.push_back([r, index, pools, block] {
    const uint64_t i = (*index)++;
    if (i % 24 == 0) {
      block->clear();
      for (Family f : {Family::kTc, Family::kTcLeft, Family::kBuys11,
                       Family::kContains, Family::kSameGen, Family::kBounded}) {
        for (int k = 0; k < 4; ++k) block->emplace_back(f, k == 0);
      }
      for (size_t j = block->size(); j > 1; --j) {
        std::swap((*block)[j - 1], (*block)[r->Below(j)]);
      }
    }
    const auto [f, fresh] = (*block)[i % 24];
    const std::string& constant = (*pools)[f].Take();
    return AdhocQuery(f, constant, i, fresh, r.get());
  });
  // 256 closures take 384 requests at 4/6 separable; 448 leave every cache
  // (32 processors, 64 plans, 256 closures) full.
  for (int i = 0; i < 448; ++i) w->warmup.push_back(w->streams[0]());
}

// The write share of YCSB's read-mostly workload B (95% reads, 5% updates;
// Cooper et al., SoCC 2010).
constexpr double kWriteShare = 0.05;

// The write_mix mutator: batches of 1-32 fresh leaf links inserted or
// earlier ones deleted, interleaved with hot route/open_route selections.
// 128 to 384 inserted links stay live, so `link` stays within 10% of its
// generated 4,032 rows and answer sizes do not drift over the run.
struct MixState {
  Rng rng;
  std::vector<Pair> added;  // link rows inserted and not yet deleted
  uint64_t fresh = 0;
  std::vector<OpPtr> selections;  // 16 route roots, then 8 open_route roots

  explicit MixState(uint64_t seed) : rng(seed, 300) {}

  OpPtr Next() {
    if (rng.Unit() >= kWriteShare) {
      return selections[rng.Below(selections.size())];
    }
    const size_t n = 1 + rng.Below(32);
    bool insert = added.size() < 128 ||
                  (added.size() <= 384 && rng.Below(2) == 0);
    if (added.size() < n) insert = true;
    std::vector<Pair> rows;
    if (insert) {
      for (size_t i = 0; i < n; ++i) {
        int tree = static_cast<int>(rng.Below(kLinkTrees));
        rows.emplace_back(
            LinkNode(tree, static_cast<int>(rng.Below(kLinkTreeNodes))),
            "t" + std::to_string(tree) + "x" + std::to_string(fresh++));
        added.push_back(rows.back());
      }
      return WriteOp(Op::kInsert, "link", std::move(rows));
    }
    for (size_t i = 0; i < n; ++i) {
      size_t j = rng.Below(added.size());
      rows.push_back(added[j]);
      added[j] = added.back();
      added.pop_back();
    }
    return WriteOp(Op::kDelete, "link", std::move(rows));
  }
};

void MakeWriteMix(uint64_t seed, const Generated&, Workload* w) {
  auto state = std::make_shared<MixState>(seed);
  for (int t = 0; t < 16; ++t) {
    state->selections.push_back(HotQuery(Family::kRoute, LinkNode(t, 0)));
  }
  for (int t = 16; t < 24; ++t) {
    state->selections.push_back(HotQuery(Family::kOpenRoute, LinkNode(t, 0)));
  }
  for (int t = 0; t < 8; ++t) w->subscriptions.push_back(state->selections[t]);
  w->connections = 1;
  w->mutates = true;
  w->ops_per_second = 1200;
  w->fsync = "always";
  // A write logs about 420 bytes (16.5 rows of about 25 bytes), and a
  // 10 s window about 600 writes: some 5 checkpoints, each rewriting the
  // whole EDB, against the 3 the traced run asserts.
  w->checkpoint_bytes = 48 << 10;
  w->streams.push_back([state] { return state->Next(); });
  w->warmup = state->selections;
  // Then the stream up to its 16th write: the first 8 or so only insert,
  // until 128 inserted links are live. The prepared dir is freshly
  // checkpointed, so the window starts where every checkpoint period does.
  for (int writes = 0; writes < 16;) {
    w->warmup.push_back(w->streams[0]());
    writes += w->warmup.back()->is_write();
  }
}

}  // namespace

size_t Edb::Rows() const {
  size_t n = 0;
  for (const auto& [name, rows] : relations) n += rows.size();
  return n;
}

std::string Op::Line(int64_t id) const {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += tail;
  return line;
}

std::string Op::SubscribeLine(int64_t id) const {
  std::string line = Line(id);
  ReplaceAll(&line, "\"op\":\"query\"", "\"op\":\"subscribe\"");
  return line;
}

uint64_t TupleHash(std::string_view tuple) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : tuple) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

OpPtr DumpQuery(const std::string& relation, bool unary) {
  auto op = std::make_shared<Op>();
  op->family = Family::kDump;
  op->relation = relation;
  const std::string args = unary ? "(X)" : "(X, Y)";
  op->program = "dump_" + relation + args + " :- " + relation + args + ".\n";
  op->query = "dump_" + relation + args;
  op->tail = ",\"op\":\"query\",\"program\":\"" + JsonEscape(op->program) +
             "\",\"query\":\"" + op->query + "\"}\n";
  return op;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Generated g;
  GenerateEdb(seed, &g);
  out->name = name;
  out->seed = seed;
  if (name == "hot_reads") {
    MakeHotReads(seed, g, out);
  } else if (name == "adhoc_queries") {
    MakeAdhoc(seed, g, out);
  } else if (name == "write_mix") {
    MakeWriteMix(seed, g, out);
  } else {
    return false;
  }
  out->edb = std::move(g.edb);
  return true;
}

// ---- oracle ---------------------------------------------------------------

Oracle::Oracle(const Edb& edb) {
  for (const auto& [name, rows] : edb.relations) {
    auto& set = rows_[name];
    auto& out = out_[name];
    auto& in = in_[name];
    for (const Pair& p : rows) {
      set.insert(p);
      if (p.second.empty()) continue;
      out[p.first].push_back(p.second);
      in[p.second].push_back(p.first);
    }
  }
}

const std::vector<std::string>& Oracle::Out(const std::string& rel,
                                            const std::string& node) const {
  static const std::vector<std::string> kNone;
  auto r = out_.find(rel);
  if (r == out_.end()) return kNone;
  auto it = r->second.find(node);
  return it == r->second.end() ? kNone : it->second;
}

const std::vector<std::string>& Oracle::In(const std::string& rel,
                                           const std::string& node) const {
  static const std::vector<std::string> kNone;
  auto r = in_.find(rel);
  if (r == in_.end()) return kNone;
  auto it = r->second.find(node);
  return it == r->second.end() ? kNone : it->second;
}

std::vector<std::string> Oracle::Reach(const std::vector<std::string>& rels,
                                       const std::string& start) const {
  std::set<std::string> seen{start};
  std::deque<std::string> frontier{start};
  while (!frontier.empty()) {
    std::string n = std::move(frontier.front());
    frontier.pop_front();
    for (const std::string& rel : rels) {
      for (const std::string& m : Out(rel, n)) {
        if (seen.insert(m).second) frontier.push_back(m);
      }
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<std::string> Oracle::Tuples(const Op& op) const {
  const std::string& c = op.constant;
  std::set<std::string> ys;  // answer values beside the constant
  switch (op.family) {
    case Family::kTc:
    case Family::kTcLeft:
    case Family::kRoute: {
      const std::string rel = op.family == Family::kRoute ? "link" : "edge";
      for (const std::string& n : Reach({rel}, c)) {
        for (const std::string& m : Out(rel, n)) ys.insert(m);
      }
      break;
    }
    case Family::kOpenRoute: {
      const auto& blocked = rows_.at("blocked");
      std::set<std::string> seen;
      std::deque<std::string> frontier{c};
      while (!frontier.empty()) {
        std::string n = std::move(frontier.front());
        frontier.pop_front();
        for (const std::string& m : Out("link", n)) {
          if (blocked.count({m, ""}) || !seen.insert(m).second) continue;
          ys.insert(m);
          frontier.push_back(m);
        }
      }
      break;
    }
    case Family::kBuys11:
    case Family::kBuys12: {
      std::vector<std::string> rels{"friend"};
      if (op.family == Family::kBuys11) rels.push_back("idol");
      std::set<std::string> products;
      for (const std::string& p : Reach(rels, c)) {
        for (const std::string& g : Out("perfectFor", p)) products.insert(g);
      }
      if (op.family == Family::kBuys12) {
        // buys(X, Y) :- buys(X, W) & cheaper(Y, W): walk cheaper backwards.
        std::deque<std::string> frontier(products.begin(), products.end());
        while (!frontier.empty()) {
          std::string w = std::move(frontier.front());
          frontier.pop_front();
          for (const std::string& y : In("cheaper", w)) {
            if (products.insert(y).second) frontier.push_back(y);
          }
        }
      }
      ys = std::move(products);
      break;
    }
    case Family::kContains: {
      // contains(P, c): every P with a part_of path to c.
      std::deque<std::string> frontier{c};
      while (!frontier.empty()) {
        std::string n = std::move(frontier.front());
        frontier.pop_front();
        for (const std::string& p : In("part_of", n)) {
          if (ys.insert(p).second) frontier.push_back(p);
        }
      }
      std::vector<std::string> out;
      for (const std::string& p : ys) out.push_back("(" + p + ", " + c + ")");
      return out;
    }
    case Family::kSameGen: {
      // Nested loop over the recursion depth k: sg(c, y) iff some
      // a = up^k(c) has flat(a, b) and y is a depth-k descendant of b.
      std::string a = c;
      for (size_t k = 0;; ++k) {
        for (const std::string& b : Out("flat", a)) {
          std::vector<std::string> level{b};
          for (size_t d = 0; d < k; ++d) {
            std::vector<std::string> next;
            for (const std::string& v : level) {
              for (const std::string& ch : Out("down", v)) next.push_back(ch);
            }
            level = std::move(next);
          }
          ys.insert(level.begin(), level.end());
        }
        const auto& parents = Out("up", a);
        if (parents.empty()) break;
        a = parents.front();
      }
      break;
    }
    case Family::kBounded:
      // Bound 0: the recursive rule adds nothing beyond the exit relation.
      for (const std::string& y : Out("edge", c)) ys.insert(y);
      break;
    case Family::kDump:
      return Rows(op.relation);
  }
  std::vector<std::string> out;
  out.reserve(ys.size());
  for (const std::string& y : ys) out.push_back("(" + c + ", " + y + ")");
  return out;
}

Digest Oracle::Expect(const Op& op) const {
  Digest d;
  for (const std::string& t : Tuples(op)) d.Add(t);
  return d;
}

void Oracle::Apply(const Op& op) {
  auto& set = rows_[op.relation];
  auto& out = out_[op.relation];
  auto& in = in_[op.relation];
  for (const Pair& p : op.rows) {
    if (op.kind == Op::kInsert) {
      if (!set.insert(p).second || p.second.empty()) continue;
      out[p.first].push_back(p.second);
      in[p.second].push_back(p.first);
    } else {
      if (set.erase(p) == 0 || p.second.empty()) continue;
      auto& o = out[p.first];
      o.erase(std::find(o.begin(), o.end(), p.second));
      auto& i = in[p.second];
      i.erase(std::find(i.begin(), i.end(), p.first));
    }
  }
}

std::vector<std::string> Oracle::Rows(const std::string& relation) const {
  std::vector<std::string> out;
  auto it = rows_.find(relation);
  if (it == rows_.end()) return out;
  for (const Pair& p : it->second) {
    out.push_back(p.second.empty() ? "(" + p.first + ")"
                                   : "(" + p.first + ", " + p.second + ")");
  }
  return out;
}

uint64_t Oracle::TsvBytes() const {
  uint64_t bytes = 0;
  for (const auto& [name, set] : rows_) {
    for (const Pair& p : set) {
      bytes += p.first.size() + 1;
      if (!p.second.empty()) bytes += p.second.size() + 1;
    }
  }
  return bytes;
}

}  // namespace perfbench
