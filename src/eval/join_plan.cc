#include "eval/join_plan.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace seprec {
namespace {

// Compiles an Expr tree into a postfix program. Returns false if the
// expression references an unbound variable.
bool CompileExpr(const Expr& expr,
                 const std::map<std::string, uint32_t>& bound_slots,
                 Database* db, std::vector<ExprOp>* out) {
  if (expr.op == Expr::Op::kTerm) {
    ExprOp op;
    op.kind = ExprOp::Kind::kPush;
    const Term& t = expr.term;
    if (t.IsVar()) {
      auto it = bound_slots.find(t.name);
      if (it == bound_slots.end()) return false;
      op.source = ValueSource::Slot(it->second);
    } else if (t.kind == Term::Kind::kInt) {
      op.source = ValueSource::Const(Value::Int(t.int_value));
    } else {
      op.source = ValueSource::Const(db->symbols().Intern(t.name));
    }
    out->push_back(op);
    return true;
  }
  if (!CompileExpr(*expr.lhs, bound_slots, db, out)) return false;
  if (!CompileExpr(*expr.rhs, bound_slots, db, out)) return false;
  ExprOp op;
  switch (expr.op) {
    case Expr::Op::kAdd: op.kind = ExprOp::Kind::kAdd; break;
    case Expr::Op::kSub: op.kind = ExprOp::Kind::kSub; break;
    case Expr::Op::kMul: op.kind = ExprOp::Kind::kMul; break;
    case Expr::Op::kDiv: op.kind = ExprOp::Kind::kDiv; break;
    case Expr::Op::kMod: op.kind = ExprOp::Kind::kMod; break;
    case Expr::Op::kTerm: return false;  // unreachable
  }
  out->push_back(op);
  return true;
}

}  // namespace

StatusOr<RulePlan> RulePlan::Compile(const Rule& rule, Database* db,
                                     const PlanOptions& options) {
  RulePlan plan;
  plan.rule_ = rule;

  std::map<std::string, uint32_t> slot_of;  // bound variables only
  auto slot_for = [&plan, &slot_of](const std::string& var) {
    auto it = slot_of.find(var);
    if (it != slot_of.end()) return it->second;
    uint32_t slot = plan.num_slots_++;
    plan.slot_names_.push_back(var);
    slot_of.emplace(var, slot);
    return slot;
  };
  auto const_value = [db](const Term& t) {
    return t.kind == Term::Kind::kInt ? Value::Int(t.int_value)
                                      : db->symbols().Intern(t.name);
  };
  auto term_source = [&](const Term& t) -> ValueSource {
    // Precondition: t is a constant or a bound variable.
    if (t.IsVar()) return ValueSource::Slot(slot_of.at(t.name));
    return ValueSource::Const(const_value(t));
  };
  auto is_bound = [&slot_of](const Term& t) {
    return !t.IsVar() || slot_of.count(t.name) > 0;
  };

  // Resolve each relational literal to its relation up front (creating
  // empty relations for never-populated EDB predicates in the root, where
  // later loads land).
  std::vector<const Relation*> relations(rule.body.size(), nullptr);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (lit.kind != Literal::Kind::kAtom) continue;
    std::string name = lit.atom.predicate;
    auto it = options.relation_overrides.find(i);
    if (it != options.relation_overrides.end()) name = it->second;
    SEPREC_ASSIGN_OR_RETURN(Relation * rel,
                            db->FindOrCreate(name, lit.atom.arity()));
    relations[i] = rel;
  }

  // The planner orders every positive atom; the scan steps below consume
  // its order front to back.
  plan.plan_info_ = PlanJoinOrder(rule, relations, db == nullptr
                                      ? nullptr
                                      : &db->stats(),
                                  options.join_order,
                                  !options.disable_indexes,
                                  options.allow_merge &&
                                      !options.disable_indexes);
  const std::vector<size_t>& atom_order = plan.plan_info_.atom_order;
  size_t next_atom = 0;

  std::vector<bool> scheduled(rule.body.size(), false);
  size_t num_scheduled = 0;

  auto schedule_builtin_if_ready = [&](size_t i) -> bool {
    const Literal& lit = rule.body[i];
    if (lit.kind == Literal::Kind::kAtom && lit.negated) {
      // Negated atoms are filters: schedule once every argument is bound.
      for (const Term& arg : lit.atom.args) {
        if (!is_bound(arg)) return false;
      }
      Step step;
      step.kind = Step::Kind::kScan;
      step.negated = true;
      step.relation = relations[i];
      step.display_name = relations[i]->name();
      step.slot_comment = lit.ToString();
      for (size_t c = 0; c < lit.atom.args.size(); ++c) {
        const Term& arg = lit.atom.args[c];
        ValueSource source = arg.IsVar()
                                 ? ValueSource::Slot(slot_of.at(arg.name))
                                 : ValueSource::Const(const_value(arg));
        if (options.disable_indexes) {
          Step::RowAction action;
          action.col = static_cast<uint32_t>(c);
          if (source.is_const) {
            action.kind = Step::RowAction::Kind::kCheckConst;
            action.constant = source.constant;
          } else {
            action.kind = Step::RowAction::Kind::kCheckSlot;
            action.slot = source.slot;
          }
          step.actions.push_back(action);
        } else {
          step.probe_cols.push_back(static_cast<uint32_t>(c));
          step.probe_sources.push_back(source);
        }
      }
      plan.scanned_.push_back(relations[i]);
      plan.steps_.push_back(std::move(step));
      return true;
    }
    if (lit.kind == Literal::Kind::kCompare) {
      bool lb = is_bound(lit.cmp_lhs);
      bool rb = is_bound(lit.cmp_rhs);
      if (lb && rb) {
        Step step;
        step.kind = Step::Kind::kCompare;
        step.cmp_op = lit.cmp_op;
        step.lhs = term_source(lit.cmp_lhs);
        step.rhs = term_source(lit.cmp_rhs);
        step.slot_comment = lit.ToString();
        plan.steps_.push_back(std::move(step));
        return true;
      }
      if (lit.cmp_op == CmpOp::kEq && (lb || rb)) {
        const Term& bound_side = lb ? lit.cmp_lhs : lit.cmp_rhs;
        const Term& free_side = lb ? lit.cmp_rhs : lit.cmp_lhs;
        Step step;
        step.kind = Step::Kind::kBindEq;
        step.bind_source = term_source(bound_side);
        step.target_slot = slot_for(free_side.name);
        step.slot_comment = lit.ToString();
        plan.steps_.push_back(std::move(step));
        return true;
      }
      return false;
    }
    if (lit.kind == Literal::Kind::kAssign) {
      std::set<std::string> inputs;
      CollectVars(lit.expr, &inputs);
      for (const std::string& v : inputs) {
        if (!slot_of.count(v)) return false;
      }
      Step step;
      step.kind = Step::Kind::kAssign;
      if (!CompileExpr(lit.expr, slot_of, db, &step.expr)) return false;
      step.assign_is_check = slot_of.count(lit.assign_var) > 0;
      step.target_slot = slot_for(lit.assign_var);
      step.slot_comment = lit.ToString();
      plan.steps_.push_back(std::move(step));
      return true;
    }
    return false;
  };

  // Re-verifies the planner's merge-join nomination against the actual
  // rule shape and, on success, emits one kMergeJoin step consuming the
  // first two atoms of the planned order. The planner only nominates pairs
  // of ordered atoms whose arguments are all distinct variables, none
  // bound before the first scan, joined exactly on a shared leading
  // prefix; this re-checks every one of those properties so a stale or
  // inconsistent verdict degrades to the hash pipeline instead of
  // compiling a wrong plan.
  auto emit_merge_join = [&]() -> bool {
    if (atom_order.size() < 2) return false;
    size_t a = atom_order[0];
    size_t b = atom_order[1];
    size_t k = plan.plan_info_.merge_prefix;
    if (a == b || a >= rule.body.size() || b >= rule.body.size()) {
      return false;
    }
    if (!rule.body[a].IsPositiveAtom() || !rule.body[b].IsPositiveAtom()) {
      return false;
    }
    const Atom& atom_a = rule.body[a].atom;
    const Atom& atom_b = rule.body[b].atom;
    if (k == 0 || k > atom_a.args.size() || k > atom_b.args.size()) {
      return false;
    }
    auto distinct_unbound_vars = [&](const Atom& atom) {
      std::set<std::string> seen;
      for (const Term& t : atom.args) {
        if (!t.IsVar() || slot_of.count(t.name) > 0 ||
            !seen.insert(t.name).second) {
          return false;
        }
      }
      return true;
    };
    if (!distinct_unbound_vars(atom_a) || !distinct_unbound_vars(atom_b)) {
      return false;
    }
    for (size_t c = 0; c < k; ++c) {
      if (atom_a.args[c].name != atom_b.args[c].name) return false;
    }
    // Shared variables must be exactly the key prefix: since each atom's
    // arguments are distinct and the prefixes are identical, it suffices
    // that no tail variable of `a` occurs anywhere in `b`.
    std::set<std::string> b_vars;
    for (const Term& t : atom_b.args) b_vars.insert(t.name);
    for (size_t c = k; c < atom_a.args.size(); ++c) {
      if (b_vars.count(atom_a.args[c].name) > 0) return false;
    }

    Step step;
    step.kind = Step::Kind::kMergeJoin;
    step.relation = relations[a];
    step.display_name = relations[a]->name();
    step.merge_right = relations[b];
    step.merge_right_name = relations[b]->name();
    step.merge_key_len = k;
    step.slot_comment =
        StrCat(atom_a.ToString(), " with ", atom_b.ToString());
    for (size_t c = 0; c < atom_a.args.size(); ++c) {
      Step::RowAction action;
      action.col = static_cast<uint32_t>(c);
      action.kind = Step::RowAction::Kind::kBind;
      action.slot = slot_for(atom_a.args[c].name);
      step.actions.push_back(action);
    }
    // Key columns are shared with the left atom, so only the right tail
    // binds new variables.
    for (size_t c = k; c < atom_b.args.size(); ++c) {
      Step::RowAction action;
      action.col = static_cast<uint32_t>(c);
      action.kind = Step::RowAction::Kind::kBind;
      action.slot = slot_for(atom_b.args[c].name);
      step.merge_right_actions.push_back(action);
    }
    plan.scanned_.push_back(relations[a]);
    plan.scanned_.push_back(relations[b]);
    plan.steps_.push_back(std::move(step));
    return true;
  };

  while (num_scheduled < rule.body.size()) {
    // 1) Schedule every ready built-in (in source order).
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (scheduled[i] || rule.body[i].IsPositiveAtom()) {
          continue;
        }
        if (schedule_builtin_if_ready(i)) {
          scheduled[i] = true;
          ++num_scheduled;
          progressed = true;
        }
      }
    }
    if (num_scheduled == rule.body.size()) break;

    // 2a) Leading merge join: when the DP chose one, it joins the first
    //     two atoms of the planned order before anything else binds their
    //     variables. Verification failure falls back to hash scans.
    if (next_atom == 0 && plan.plan_info_.algo == "merge") {
      if (emit_merge_join()) {
        scheduled[atom_order[0]] = true;
        scheduled[atom_order[1]] = true;
        num_scheduled += 2;
        next_atom = 2;
        continue;
      }
      plan.plan_info_.algo = "hash";
      plan.plan_info_.merge_prefix = 0;
    }

    // 2) Next relational literal, in the planner's order.
    if (next_atom == atom_order.size()) {
      // Only built-ins remain and none is ready: the rule is unsafe.
      return InvalidArgumentError(
          StrCat("cannot order body of rule: ", rule.ToString()));
    }
    const size_t atom_index = atom_order[next_atom++];

    const Atom& atom = rule.body[atom_index].atom;
    Step step;
    step.kind = Step::Kind::kScan;
    step.relation = relations[atom_index];
    step.display_name = relations[atom_index]->name();
    step.slot_comment = atom.ToString();
    std::map<std::string, uint32_t> bound_in_this_atom;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const Term& arg = atom.args[c];
      if (!arg.IsVar()) {
        if (options.disable_indexes) {
          Step::RowAction action;
          action.col = static_cast<uint32_t>(c);
          action.kind = Step::RowAction::Kind::kCheckConst;
          action.constant = const_value(arg);
          step.actions.push_back(action);
        } else {
          step.probe_cols.push_back(static_cast<uint32_t>(c));
          step.probe_sources.push_back(ValueSource::Const(const_value(arg)));
        }
        continue;
      }
      // A variable this atom binds at an earlier column is checked against
      // that binding; probing on it would key the index by a slot the row
      // has not filled yet.
      auto seen = bound_in_this_atom.find(arg.name);
      if (seen == bound_in_this_atom.end() && slot_of.count(arg.name)) {
        if (options.disable_indexes) {
          Step::RowAction action;
          action.col = static_cast<uint32_t>(c);
          action.kind = Step::RowAction::Kind::kCheckSlot;
          action.slot = slot_of.at(arg.name);
          step.actions.push_back(action);
        } else {
          step.probe_cols.push_back(static_cast<uint32_t>(c));
          step.probe_sources.push_back(
              ValueSource::Slot(slot_of.at(arg.name)));
        }
        continue;
      }
      Step::RowAction action;
      action.col = static_cast<uint32_t>(c);
      if (seen != bound_in_this_atom.end()) {
        action.kind = Step::RowAction::Kind::kCheckSlot;
        action.slot = seen->second;
      } else {
        action.kind = Step::RowAction::Kind::kBind;
        action.slot = slot_for(arg.name);
        bound_in_this_atom.emplace(arg.name, action.slot);
      }
      step.actions.push_back(action);
    }
    plan.scanned_.push_back(relations[atom_index]);
    plan.steps_.push_back(std::move(step));
    scheduled[atom_index] = true;
    ++num_scheduled;
  }

  // Head emission: all head variables must be bound by now.
  for (const Term& arg : rule.head.args) {
    if (arg.IsVar()) {
      auto it = slot_of.find(arg.name);
      if (it == slot_of.end()) {
        return InvalidArgumentError(
            StrCat("unsafe rule, head variable '", arg.name,
                   "' unbound: ", rule.ToString()));
      }
      plan.head_sources_.push_back(ValueSource::Slot(it->second));
    } else {
      plan.head_sources_.push_back(ValueSource::Const(const_value(arg)));
    }
  }

  return plan;
}

struct RulePlan::ExecContext {
  std::vector<Value> slots;
  // Per step, the Index it probes, resolved on the step's first probe of
  // this execution rather than on every outer row (GetIndex takes the
  // relation's index lock and searches its map).
  std::vector<const Index*> indexes;
  size_t probes = 0;  // candidate rows examined by scan steps
  bool overflow = false;

  const Index& IndexFor(size_t step_index, const Step& step) {
    const Index*& index = indexes[step_index];
    if (index == nullptr) index = &step.relation->GetIndex(step.probe_cols);
    return *index;
  }
};

template <typename Sink>
void RulePlan::Run(Sink&& sink, bool* overflow, size_t* probes) const {
  ExecContext ctx;
  ctx.slots.resize(num_slots_);
  ctx.indexes.assign(steps_.size(), nullptr);
  RunStep(0, &ctx, sink);
  if (overflow != nullptr && ctx.overflow) *overflow = true;
  if (probes != nullptr) *probes += ctx.probes;
}

bool RulePlan::EvalCompare(CmpOp op, Value a, Value b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    default:
      break;
  }
  // Ordering comparisons are defined on integers only.
  if (!a.is_int() || !b.is_int()) return false;
  int64_t x = a.as_int();
  int64_t y = b.as_int();
  switch (op) {
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return x <= y;
    case CmpOp::kGt: return x > y;
    case CmpOp::kGe: return x >= y;
    default: return false;
  }
}

namespace {

// Evaluates a postfix arithmetic program. Returns false on type error,
// division by zero, or overflow (and sets *overflow for the latter).
bool EvalExpr(const std::vector<ExprOp>& ops, const std::vector<Value>& slots,
              Value* result, bool* overflow) {
  // Expressions are tiny; a fixed-capacity stack suffices and avoids
  // allocation in the inner loop.
  int64_t stack[32];
  size_t depth = 0;
  for (const ExprOp& op : ops) {
    if (op.kind == ExprOp::Kind::kPush) {
      Value v = op.source.is_const ? op.source.constant
                                   : slots[op.source.slot];
      if (!v.is_int()) return false;
      if (depth >= 32) return false;
      stack[depth++] = v.as_int();
      continue;
    }
    if (depth < 2) return false;
    int64_t b = stack[--depth];
    int64_t a = stack[--depth];
    int64_t r = 0;
    switch (op.kind) {
      case ExprOp::Kind::kAdd:
        if (__builtin_add_overflow(a, b, &r)) {
          *overflow = true;
          return false;
        }
        break;
      case ExprOp::Kind::kSub:
        if (__builtin_sub_overflow(a, b, &r)) {
          *overflow = true;
          return false;
        }
        break;
      case ExprOp::Kind::kMul:
        if (__builtin_mul_overflow(a, b, &r)) {
          *overflow = true;
          return false;
        }
        break;
      case ExprOp::Kind::kDiv:
        if (b == 0) return false;
        r = a / b;
        break;
      case ExprOp::Kind::kMod:
        if (b == 0) return false;
        r = a % b;
        break;
      case ExprOp::Kind::kPush:
        return false;  // unreachable
    }
    stack[depth++] = r;
  }
  if (depth != 1) return false;
  if (stack[0] > Value::kMaxInt || stack[0] < Value::kMinInt) {
    *overflow = true;
    return false;
  }
  *result = Value::Int(stack[0]);
  return true;
}

}  // namespace

template <typename Sink>
void RulePlan::RunStep(size_t step_index, ExecContext* ctx,
                       Sink&& sink) const {
  if (step_index == steps_.size()) {
    // Emit the head row.
    Value row[64];
    SEPREC_CHECK(head_sources_.size() <= 64);
    for (size_t i = 0; i < head_sources_.size(); ++i) {
      const ValueSource& src = head_sources_[i];
      row[i] = src.is_const ? src.constant : ctx->slots[src.slot];
    }
    sink(Row(row, head_sources_.size()));
    return;
  }
  const Step& step = steps_[step_index];
  auto resolve = [ctx](const ValueSource& src) {
    return src.is_const ? src.constant : ctx->slots[src.slot];
  };
  switch (step.kind) {
    case Step::Kind::kScan: {
      if (step.negated) {
        // Anti-join: continue only when no row matches.
        bool found = false;
        auto check_row = [&](uint32_t row_id) {
          if (found) return;
          ++ctx->probes;
          Row r = step.relation->row(row_id);
          for (const Step::RowAction& action : step.actions) {
            if (action.kind == Step::RowAction::Kind::kCheckSlot) {
              if (r[action.col] != ctx->slots[action.slot]) return;
            } else {
              if (r[action.col] != action.constant) return;
            }
          }
          found = true;
        };
        if (step.probe_cols.empty()) {
          size_t n = step.relation->slots();
          for (uint32_t slot = 0; slot < n && !found; ++slot) {
            if (step.relation->IsLive(slot)) check_row(slot);
          }
        } else {
          Value key[64];
          SEPREC_CHECK(step.probe_cols.size() <= 64);
          for (size_t i = 0; i < step.probe_sources.size(); ++i) {
            key[i] = resolve(step.probe_sources[i]);
          }
          const Index& index = ctx->IndexFor(step_index, step);
          index.ForEach(Row(key, step.probe_cols.size()),
                        [&found](uint32_t) { found = true; });
        }
        if (!found) RunStep(step_index + 1, ctx, sink);
        return;
      }
      auto try_row = [&](uint32_t row_id) {
        ++ctx->probes;
        Row r = step.relation->row(row_id);
        for (const Step::RowAction& action : step.actions) {
          switch (action.kind) {
            case Step::RowAction::Kind::kBind:
              ctx->slots[action.slot] = r[action.col];
              break;
            case Step::RowAction::Kind::kCheckSlot:
              if (r[action.col] != ctx->slots[action.slot]) return;
              break;
            case Step::RowAction::Kind::kCheckConst:
              if (r[action.col] != action.constant) return;
              break;
          }
        }
        RunStep(step_index + 1, ctx, sink);
      };
      if (step.probe_cols.empty()) {
        size_t n = step.relation->slots();
        for (uint32_t slot = 0; slot < n; ++slot) {
          if (step.relation->IsLive(slot)) try_row(slot);
        }
      } else {
        Value key[64];
        SEPREC_CHECK(step.probe_cols.size() <= 64);
        for (size_t i = 0; i < step.probe_sources.size(); ++i) {
          key[i] = resolve(step.probe_sources[i]);
        }
        const Index& index = ctx->IndexFor(step_index, step);
        index.ForEach(Row(key, step.probe_cols.size()), try_row);
      }
      return;
    }
    case Step::Kind::kMergeJoin: {
      const size_t k = step.merge_key_len;
      SEPREC_CHECK(k > 0 && k <= 64);
      auto apply = [ctx](Row r, const std::vector<Step::RowAction>& actions) {
        for (const Step::RowAction& action : actions) {
          switch (action.kind) {
            case Step::RowAction::Kind::kBind:
              ctx->slots[action.slot] = r[action.col];
              break;
            case Step::RowAction::Kind::kCheckSlot:
              if (r[action.col] != ctx->slots[action.slot]) return false;
              break;
            case Step::RowAction::Kind::kCheckConst:
              if (r[action.col] != action.constant) return false;
              break;
          }
        }
        return true;
      };
      // Canonical segment order is raw-bits lexicographic, matching
      // OrderedCursor; keys compare by bits, never by Value semantics.
      auto key_cmp = [k](Row a, Row b) {
        for (size_t i = 0; i < k; ++i) {
          uint64_t x = a[i].bits();
          uint64_t y = b[i].bits();
          if (x != y) return x < y ? -1 : 1;
        }
        return 0;
      };
      Value key[64];
      auto matches_key = [&key, k](Row r) {
        for (size_t i = 0; i < k; ++i) {
          if (r[i] != key[i]) return false;
        }
        return true;
      };
      const size_t rarity = step.merge_right->arity();
      std::vector<Value> right_buf;
      OrderedCursor left(step.relation);
      OrderedCursor right(step.merge_right);
      while (!left.AtEnd() && !right.AtEnd()) {
        int cmp = key_cmp(left.Current(), right.Current());
        if (cmp < 0) {
          ++ctx->probes;
          left.Next();
          continue;
        }
        if (cmp > 0) {
          ++ctx->probes;
          right.Next();
          continue;
        }
        // Key group: buffer the right side (typically the smaller fan-out)
        // then stream the left side against it.
        {
          Row l = left.Current();
          for (size_t i = 0; i < k; ++i) key[i] = l[i];
        }
        right_buf.clear();
        while (!right.AtEnd()) {
          Row r = right.Current();
          if (!matches_key(r)) break;
          ++ctx->probes;
          right_buf.insert(right_buf.end(), r.data(), r.data() + rarity);
          right.Next();
        }
        while (!left.AtEnd()) {
          Row l = left.Current();
          if (!matches_key(l)) break;
          ++ctx->probes;
          if (apply(l, step.actions)) {
            for (size_t off = 0; off < right_buf.size(); off += rarity) {
              Row r(right_buf.data() + off, rarity);
              if (apply(r, step.merge_right_actions)) {
                RunStep(step_index + 1, ctx, sink);
              }
            }
          }
          left.Next();
        }
      }
      return;
    }
    case Step::Kind::kCompare: {
      if (EvalCompare(step.cmp_op, resolve(step.lhs), resolve(step.rhs))) {
        RunStep(step_index + 1, ctx, sink);
      }
      return;
    }
    case Step::Kind::kBindEq: {
      ctx->slots[step.target_slot] = resolve(step.bind_source);
      RunStep(step_index + 1, ctx, sink);
      return;
    }
    case Step::Kind::kAssign: {
      Value result;
      if (!EvalExpr(step.expr, ctx->slots, &result, &ctx->overflow)) {
        return;
      }
      if (step.assign_is_check) {
        if (ctx->slots[step.target_slot] != result) return;
      } else {
        ctx->slots[step.target_slot] = result;
      }
      RunStep(step_index + 1, ctx, sink);
      return;
    }
  }
}

template <typename Out>
size_t RulePlan::EmitInto(Out* out, bool* overflow,
                          RuleExecMetrics* metrics) const {
  SEPREC_CHECK(out->arity() == head_sources_.size());
  size_t inserted = 0;
  size_t emitted = 0;
  Run(
      [out, &inserted, &emitted](Row row) {
        ++emitted;
        inserted += out->Insert(row) ? 1 : 0;
      },
      overflow, metrics != nullptr ? &metrics->probes : nullptr);
  if (metrics != nullptr) {
    metrics->emitted += emitted;
    metrics->inserted += inserted;
  }
  return inserted;
}

size_t RulePlan::ExecuteInto(Relation* out, bool* overflow,
                             RuleExecMetrics* metrics) const {
  for (const Relation* scanned : scanned_) {
    SEPREC_CHECK(scanned != out);
  }
  return EmitInto(out, overflow, metrics);
}

size_t RulePlan::ExecuteInto(StagingSink* out, bool* overflow,
                             RuleExecMetrics* metrics) const {
  return EmitInto(out, overflow, metrics);
}

size_t RulePlan::CountDerivations() const {
  size_t count = 0;
  Run([&count](Row) { ++count; }, nullptr);
  return count;
}

std::string RulePlan::DebugString() const {
  std::string out = StrCat("plan for: ", rule_.ToString(), "\n");
  for (const Step& step : steps_) {
    switch (step.kind) {
      case Step::Kind::kScan: {
        out += StrCat(step.negated ? "  anti-scan " : "  scan ",
                      step.display_name, " [", step.slot_comment,
                      "] probe(");
        for (size_t i = 0; i < step.probe_cols.size(); ++i) {
          if (i > 0) out += ",";
          out += StrCat(step.probe_cols[i]);
        }
        out += ")\n";
        break;
      }
      case Step::Kind::kMergeJoin:
        out += StrCat("  merge-join ", step.display_name, " with ",
                      step.merge_right_name, " on ",
                      static_cast<uint64_t>(step.merge_key_len),
                      " key col(s) [", step.slot_comment, "]\n");
        break;
      case Step::Kind::kCompare:
        out += StrCat("  filter ", step.slot_comment, "\n");
        break;
      case Step::Kind::kBindEq:
        out += StrCat("  bind ", step.slot_comment, "\n");
        break;
      case Step::Kind::kAssign:
        out += StrCat("  compute ", step.slot_comment, "\n");
        break;
    }
  }
  out += "  emit head\n";
  return out;
}

}  // namespace seprec
