#include "plan/planner.h"

#include <algorithm>
#include <bitset>
#include <map>
#include <set>

#include "plan/cost.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// Variable sets are bitmasks over per-body variable ids. Ids past
// kMaxVars are not tracked: those variables never count as bound, which
// only makes estimates pessimistic.
constexpr size_t kMaxVars = 256;
using VarMask = std::bitset<kMaxVars>;

// The body reduced to what the cost model needs: positive atoms with their
// statistics and variable sets, plus, for each built-in, which variables
// it needs and which it binds once ready (mirroring the scheduling rules
// in RulePlan::Compile).
struct BodyModel {
  std::vector<size_t> atoms;              // body indices of positive atoms
  std::vector<VarMask> atom_vars;         // parallel to atoms
  std::vector<RelationStats> atom_stats;  // parallel to atoms
  struct Builtin {
    VarMask inputs;
    VarMask binds;
  };
  std::vector<Builtin> builtins;
  std::map<std::string, size_t> var_ids;
};

VarMask VarBit(BodyModel* model, const std::string& name) {
  size_t id = model->var_ids.emplace(name, model->var_ids.size()).first->second;
  VarMask mask;
  if (id < kMaxVars) mask.set(id);
  return mask;
}

VarMask TermVars(BodyModel* model, const Term& t) {
  return t.IsVar() ? VarBit(model, t.name) : VarMask{};
}

BodyModel BuildModel(const Rule& rule,
                     const std::vector<const Relation*>& relations,
                     StatsCatalog* stats) {
  BodyModel model;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (lit.IsPositiveAtom()) {
      VarMask vars;
      for (const Term& arg : lit.atom.args) vars |= TermVars(&model, arg);
      // A relation that does not exist yet is costed as the empty
      // relation RulePlan::Compile will create for it.
      RelationStats rel_stats;
      rel_stats.distinct.assign(lit.atom.arity(), 0);
      if (const Relation* rel = relations[i]; rel != nullptr) {
        rel_stats = stats != nullptr ? stats->Get(*rel)
                                     : ComputeRelationStats(*rel);
      }
      model.atoms.push_back(i);
      model.atom_vars.push_back(vars);
      model.atom_stats.push_back(std::move(rel_stats));
      continue;
    }
    if (lit.kind == Literal::Kind::kCompare) {
      VarMask lhs = TermVars(&model, lit.cmp_lhs);
      VarMask rhs = TermVars(&model, lit.cmp_rhs);
      if (lit.cmp_op == CmpOp::kEq) {
        // X = Y binds whichever side is still free once the other is
        // bound; a constant side makes the variable free immediately.
        if (rhs.any()) model.builtins.push_back({lhs, rhs});
        if (lhs.any()) model.builtins.push_back({rhs, lhs});
      }
      continue;
    }
    if (lit.kind == Literal::Kind::kAssign) {
      std::set<std::string> inputs;
      CollectVars(lit.expr, &inputs);
      BodyModel::Builtin b;
      for (const std::string& v : inputs) b.inputs |= VarBit(&model, v);
      b.binds = VarBit(&model, lit.assign_var);
      model.builtins.push_back(b);
      continue;
    }
    // Negated atoms are pure filters; they bind nothing. Their variables
    // still get ids so head/compare references resolve consistently.
    if (lit.kind == Literal::Kind::kAtom) {
      for (const Term& arg : lit.atom.args) TermVars(&model, arg);
    }
  }
  return model;
}

// Variables derivable from `bound` through built-ins alone.
VarMask Close(const BodyModel& model, VarMask bound) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BodyModel::Builtin& b : model.builtins) {
      if ((b.inputs & ~bound).any()) continue;
      if ((b.binds & ~bound).none()) continue;
      bound |= b.binds;
      changed = true;
    }
  }
  return bound;
}

// Columns of atom `pos` constrained (constant or bound variable) under
// the given bound-variable set. Within-atom repeats are post-filters in
// the compiled plan, so only the first occurrence of a free variable is
// skipped here and later occurrences of it stay unbound too.
std::vector<uint32_t> BoundCols(const BodyModel& model, const Rule& rule,
                                size_t pos, VarMask bound) {
  const Atom& atom = rule.body[model.atoms[pos]].atom;
  std::vector<uint32_t> cols;
  for (size_t c = 0; c < atom.args.size(); ++c) {
    const Term& arg = atom.args[c];
    if (!arg.IsVar()) {
      cols.push_back(static_cast<uint32_t>(c));
      continue;
    }
    auto it = model.var_ids.find(arg.name);
    if (it != model.var_ids.end() && it->second < kMaxVars &&
        bound.test(it->second)) {
      cols.push_back(static_cast<uint32_t>(c));
    }
  }
  return cols;
}

// Cost and output cardinality of scanning the atoms in `order` (positions
// into model.atoms).
void WalkOrder(const BodyModel& model, const Rule& rule,
               const std::vector<size_t>& order, bool indexed, double* cost,
               double* card) {
  VarMask bound = Close(model, {});
  *cost = 0.0;
  *card = 1.0;
  for (size_t pos : order) {
    std::vector<uint32_t> cols = BoundCols(model, rule, pos, bound);
    const RelationStats& stats = model.atom_stats[pos];
    *cost += CostModel::ScanCost(stats, cols, *card, indexed);
    *card *= CostModel::EstimateMatches(stats, cols);
    bound = Close(model, bound | model.atom_vars[pos]);
  }
}

// The order for bodies past the DP table: each step scans the atom with
// the lowest ScanCost given the variables bound so far (the incoming
// cardinality scales every candidate alike, so it is left out); ties go
// to source order.
PlannedBody RunGreedy(const BodyModel& model, const Rule& rule,
                      bool indexed) {
  const size_t n = model.atoms.size();
  std::vector<size_t> order;
  std::vector<bool> placed(n, false);
  VarMask bound = Close(model, {});
  while (order.size() < n) {
    size_t best = n;
    double best_cost = 0.0;
    for (size_t pos = 0; pos < n; ++pos) {
      if (placed[pos]) continue;
      double cost = CostModel::ScanCost(model.atom_stats[pos],
                                        BoundCols(model, rule, pos, bound),
                                        1.0, indexed);
      if (best == n || cost < best_cost) {
        best = pos;
        best_cost = cost;
      }
    }
    placed[best] = true;
    order.push_back(best);
    bound = Close(model, bound | model.atom_vars[best]);
  }
  PlannedBody out;
  out.mode = "cbo-fallback";
  for (size_t pos : order) out.atom_order.push_back(model.atoms[pos]);
  WalkOrder(model, rule, order, indexed, &out.cost, &out.est_rows);
  return out;
}

struct Cand {
  std::vector<uint8_t> order;  // positions into model.atoms
  double cost = 0.0;
  double card = 1.0;
  // Interesting-order tracking (RDF-3X keeps ordered plans alive the same
  // way): true when this plan's leading pair is a merge join, so its
  // output streams in key order. `merge_prefix` is the shared-prefix
  // length; both survive extension since later atoms only hash-probe.
  bool merged = false;
  size_t merge_prefix = 0;
};

// RDF-3X-style dominance insertion: keep `p` only if no existing plan is
// at least as good on both cost and cardinality — and, the interesting-
// order rule, an unordered plan never evicts an ordered one (a merged
// plan's streaming output is a property cost and cardinality don't see).
// Ties go to the incumbent, which makes the winner independent of
// floating-point noise-free insertion order (itself deterministic).
void AddPlan(std::vector<Cand>* list, Cand p) {
  for (const Cand& q : *list) {
    if (q.cost <= p.cost && q.card <= p.card && (q.merged || !p.merged)) {
      return;
    }
  }
  list->erase(std::remove_if(list->begin(), list->end(),
                             [&p](const Cand& q) {
                               return p.cost <= q.cost && p.card <= q.card &&
                                      (p.merged || !q.merged);
                             }),
              list->end());
  list->push_back(std::move(p));
}

// Longest usable merge prefix of two positive atoms (positions pa, pb
// into model.atoms), or 0 when they cannot merge-join: every argument of
// both atoms must be a variable, distinct within its atom; the leading k
// arguments must be the same variable sequence in the same order; and no
// variable may be shared outside that prefix (a cross-column equality
// would need a post-filter the merge operator does not apply).
size_t MergePrefix(const BodyModel& model, const Rule& rule, size_t pa,
                   size_t pb) {
  const Atom& a = rule.body[model.atoms[pa]].atom;
  const Atom& b = rule.body[model.atoms[pb]].atom;
  auto all_distinct_vars = [](const Atom& atom) {
    std::set<std::string> seen;
    for (const Term& t : atom.args) {
      if (!t.IsVar() || !seen.insert(t.name).second) return false;
    }
    return true;
  };
  if (a.args.empty() || b.args.empty()) return 0;
  if (!all_distinct_vars(a) || !all_distinct_vars(b)) return 0;
  size_t k = 0;
  while (k < a.args.size() && k < b.args.size() &&
         a.args[k].name == b.args[k].name) {
    ++k;
  }
  if (k == 0) return 0;
  std::set<std::string> a_vars;
  for (const Term& t : a.args) a_vars.insert(t.name);
  for (size_t i = k; i < b.args.size(); ++i) {
    if (a_vars.count(b.args[i].name) != 0) return 0;
  }
  return k;
}

PlannedBody RunDp(const BodyModel& model, const Rule& rule, bool indexed,
                  bool allow_merge) {
  const size_t n = model.atoms.size();
  const size_t full = (size_t{1} << n) - 1;

  // Bound-variable set per subset (order-independent).
  std::vector<VarMask> bound_of(full + 1);
  bound_of[0] = Close(model, {});
  for (size_t mask = 1; mask <= full; ++mask) {
    size_t low = mask & (mask - 1);
    size_t bit = mask ^ low;
    size_t pos = static_cast<size_t>(__builtin_ctzll(bit));
    bound_of[mask] = Close(model, bound_of[low] | model.atom_vars[pos]);
  }

  std::vector<std::vector<Cand>> table(full + 1);
  table[0].push_back(Cand{});

  // Seed merge-join candidates for every eligible leading pair. A merge
  // join only runs as the plan's first step (its cursors scan whole
  // relations; incoming bindings would be ignored), so the pair's
  // variables must not be pre-bound by built-ins, and both inputs must be
  // ordered — i.e. segment-backed. The DP then extends these two-atom
  // plans like any other; dominance keeps them alive as the "ordered"
  // interesting-order property even when a hash plan is cheaper.
  if (allow_merge) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (!model.atom_stats[i].ordered || !model.atom_stats[j].ordered) {
          continue;
        }
        if ((bound_of[0] &
             (model.atom_vars[i] | model.atom_vars[j])).any()) {
          continue;
        }
        const size_t k = MergePrefix(model, rule, i, j);
        if (k == 0) continue;
        std::vector<uint32_t> key_cols(k);
        for (size_t c = 0; c < k; ++c) key_cols[c] = static_cast<uint32_t>(c);
        Cand cand;
        cand.order = {static_cast<uint8_t>(i), static_cast<uint8_t>(j)};
        cand.card = CostModel::EffectiveRows(model.atom_stats[i]) *
                    CostModel::EstimateMatches(model.atom_stats[j], key_cols);
        cand.cost = CostModel::MergeJoinCost(model.atom_stats[i],
                                             model.atom_stats[j], cand.card);
        cand.merged = true;
        cand.merge_prefix = k;
        AddPlan(&table[(size_t{1} << i) | (size_t{1} << j)],
                std::move(cand));
      }
    }
  }
  for (size_t mask = 0; mask < full; ++mask) {
    if (table[mask].empty()) continue;
    for (size_t pos = 0; pos < n; ++pos) {
      if (mask & (size_t{1} << pos)) continue;
      std::vector<uint32_t> cols =
          BoundCols(model, rule, pos, bound_of[mask]);
      const RelationStats& stats = model.atom_stats[pos];
      double matches = CostModel::EstimateMatches(stats, cols);
      size_t next = mask | (size_t{1} << pos);
      for (const Cand& base : table[mask]) {
        Cand ext;
        ext.order = base.order;
        ext.order.push_back(static_cast<uint8_t>(pos));
        ext.cost =
            base.cost + CostModel::ScanCost(stats, cols, base.card, indexed);
        ext.card = base.card * matches;
        ext.merged = base.merged;
        ext.merge_prefix = base.merge_prefix;
        AddPlan(&table[next], std::move(ext));
      }
    }
  }

  const Cand* best = nullptr;
  for (const Cand& c : table[full]) {
    if (best == nullptr || c.cost < best->cost) best = &c;
  }
  PlannedBody out;
  out.mode = "cbo";
  if (best == nullptr) return out;  // n == 0: nothing to order
  for (uint8_t pos : best->order) out.atom_order.push_back(model.atoms[pos]);
  out.cost = best->cost;
  out.est_rows = best->card;
  if (best->merged) {
    out.algo = "merge";
    out.merge_prefix = best->merge_prefix;
  }
  return out;
}

}  // namespace

std::string PlannedBody::OrderString() const {
  std::string s;
  for (size_t i = 0; i < atom_order.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(atom_order[i]);
  }
  return s;
}

PlannedBody PlanJoinOrder(const Rule& rule,
                          const std::vector<const Relation*>& relations,
                          StatsCatalog* stats, JoinOrderMode mode,
                          bool indexed, bool allow_merge) {
  PlannedBody out;
  if (mode == JoinOrderMode::kCostBased) {
    // Bodies with at most one positive atom have nothing to reorder:
    // answer without touching statistics. Magic/counting rewrites emit
    // many such rules, and this keeps their per-query compile cost flat.
    size_t positive = 0;
    size_t last = 0;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].IsPositiveAtom()) {
        ++positive;
        last = i;
      }
    }
    if (positive <= 1) {
      out.mode = "cbo";
      if (positive == 1) out.atom_order.push_back(last);
      return out;
    }
  }
  BodyModel model = BuildModel(rule, relations, stats);
  if (mode == JoinOrderMode::kTextual) {
    out.mode = "textual";
    out.atom_order = model.atoms;
    std::vector<size_t> positions(model.atoms.size());
    for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
    WalkOrder(model, rule, positions, indexed, &out.cost, &out.est_rows);
    return out;
  }
  if (model.atoms.size() > kMaxDpAtoms) {
    return RunGreedy(model, rule, indexed);
  }
  return RunDp(model, rule, indexed, allow_merge);
}

}  // namespace seprec
