#include "datalog/parser.h"

#include <algorithm>
#include <cstdio>

#include "datalog/lexer.h"
#include "util/string_util.h"

namespace seprec {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ParsedUnit> ParseUnit() {
    ParsedUnit unit;
    while (!At(TokenKind::kEnd)) {
      if (At(TokenKind::kQueryDash)) {
        Advance();
        SEPREC_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
        SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
        unit.queries.push_back(std::move(atom));
        continue;
      }
      const Token& first = Peek();
      Rule rule;
      SEPREC_RETURN_IF_ERROR(ParseHead(&rule.head, &rule.aggregate));
      if (At(TokenKind::kQuestion)) {
        Advance();
        if (rule.aggregate.has_value()) {
          return Error("aggregates are not allowed in queries");
        }
        // Optional trailing period after "atom?".
        if (At(TokenKind::kPeriod)) Advance();
        unit.queries.push_back(std::move(rule.head));
        continue;
      }
      if (At(TokenKind::kColonDash)) {
        Advance();
        SEPREC_ASSIGN_OR_RETURN(rule.body, ParseBody());
      } else if (rule.aggregate.has_value()) {
        return Error("an aggregate head needs a rule body");
      }
      SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
      rule.span = SpanFrom(first);
      unit.program.rules.push_back(std::move(rule));
    }
    return unit;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  const Token& Advance() { return tokens_[pos_++]; }

  // The extent from `start` through the most recently consumed token.
  SourceSpan SpanFrom(const Token& start) const {
    SourceSpan span;
    span.line = start.line;
    span.col = start.col;
    const Token& last = pos_ > 0 ? tokens_[pos_ - 1] : start;
    span.end_line = last.line;
    span.end_col = last.end_col;
    return span;
  }

  Status Error(std::string_view message) const {
    return InvalidArgumentError(StrCat("line ", Peek().line, ", col ",
                                       Peek().col, ": ", message));
  }

  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      return Error(StrCat("expected ", TokenKindToString(kind), ", found ",
                          TokenKindToString(Peek().kind)));
    }
    Advance();
    return Status::OK();
  }

  StatusOr<std::vector<Literal>> ParseBody() {
    std::vector<Literal> body;
    while (true) {
      SEPREC_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      body.push_back(std::move(lit));
      if (At(TokenKind::kComma)) {
        Advance();
        continue;
      }
      return body;
    }
  }

  StatusOr<Literal> ParseLiteral() {
    const Token& first = Peek();
    // 'not atom' — stratified negation ('not' is a reserved word in rule
    // bodies when followed by a predicate name).
    if (At(TokenKind::kIdent) && Peek().text == "not" &&
        pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokenKind::kIdent) {
      Advance();
      SEPREC_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      Literal lit = Literal::MakeNegatedAtom(std::move(atom));
      lit.span = SpanFrom(first);
      return lit;
    }
    // 'X is expr' assignment?
    if (At(TokenKind::kVar) && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokenKind::kIdent &&
        tokens_[pos_ + 1].text == "is") {
      std::string var = Advance().text;
      Advance();  // 'is'
      int depth = 0;
      SEPREC_ASSIGN_OR_RETURN(Expr expr, ParseExpr(/*nesting=*/0, &depth));
      Literal lit = Literal::MakeAssign(std::move(var), std::move(expr));
      lit.span = SpanFrom(first);
      return lit;
    }
    // Relational atom: identifier followed by '(' or standing alone in a
    // comparison-free position.
    if (At(TokenKind::kIdent) &&
        (pos_ + 1 >= tokens_.size() ||
         tokens_[pos_ + 1].kind == TokenKind::kLParen ||
         !IsCmpToken(tokens_[pos_ + 1].kind))) {
      SEPREC_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      Literal lit = Literal::MakeAtom(std::move(atom));
      lit.span = SpanFrom(first);
      return lit;
    }
    // Comparison: term cmpop term.
    SEPREC_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (!IsCmpToken(Peek().kind)) {
      return Error(StrCat("expected comparison operator after ",
                          lhs.ToString()));
    }
    CmpOp op = TokenToCmpOp(Advance().kind);
    SEPREC_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    Literal lit = Literal::MakeCompare(op, std::move(lhs), std::move(rhs));
    lit.span = SpanFrom(first);
    return lit;
  }

  static bool IsCmpToken(TokenKind kind) {
    switch (kind) {
      case TokenKind::kEq:
      case TokenKind::kNe:
      case TokenKind::kLt:
      case TokenKind::kLe:
      case TokenKind::kGt:
      case TokenKind::kGe:
        return true;
      default:
        return false;
    }
  }

  static CmpOp TokenToCmpOp(TokenKind kind) {
    switch (kind) {
      case TokenKind::kEq: return CmpOp::kEq;
      case TokenKind::kNe: return CmpOp::kNe;
      case TokenKind::kLt: return CmpOp::kLt;
      case TokenKind::kLe: return CmpOp::kLe;
      case TokenKind::kGt: return CmpOp::kGt;
      case TokenKind::kGe: return CmpOp::kGe;
      default: SEPREC_CHECK(false);
    }
    __builtin_unreachable();  // GCC drops [[noreturn]] info under -fsanitize=thread
  }

  // Parses a rule head: an atom whose arguments may include one aggregate
  // `count(V)` / `sum(V)` / `min(V)` / `max(V)`.
  Status ParseHead(Atom* head, std::optional<AggregateSpec>* aggregate) {
    const Token& first = Peek();
    if (!At(TokenKind::kIdent)) {
      return Error(StrCat("expected predicate name, found ",
                          TokenKindToString(Peek().kind)));
    }
    head->predicate = Advance().text;
    if (!At(TokenKind::kLParen)) {
      head->span = SpanFrom(first);
      return Status::OK();
    }
    Advance();
    while (true) {
      std::optional<AggregateSpec::Op> op;
      if (At(TokenKind::kIdent) && pos_ + 1 < tokens_.size() &&
          tokens_[pos_ + 1].kind == TokenKind::kLParen) {
        const std::string& word = Peek().text;
        if (word == "count") op = AggregateSpec::Op::kCount;
        if (word == "sum") op = AggregateSpec::Op::kSum;
        if (word == "min") op = AggregateSpec::Op::kMin;
        if (word == "max") op = AggregateSpec::Op::kMax;
      }
      if (op.has_value()) {
        int line = Peek().line;
        int col = Peek().col;
        Advance();  // op word
        Advance();  // '('
        if (!At(TokenKind::kVar)) {
          return InvalidArgumentError(StrCat("line ", line, ", col ", col,
                                             ": aggregate needs a variable"));
        }
        std::string var = Advance().text;
        SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        if (aggregate->has_value()) {
          return InvalidArgumentError(
              StrCat("line ", line, ", col ", col,
                     ": at most one aggregate per head"));
        }
        AggregateSpec spec;
        spec.op = *op;
        spec.head_position = head->args.size();
        spec.over_var = var;
        *aggregate = spec;
        head->args.push_back(Term::Var(var));
      } else {
        SEPREC_ASSIGN_OR_RETURN(Term term, ParseTerm());
        head->args.push_back(std::move(term));
      }
      if (At(TokenKind::kComma)) {
        Advance();
        continue;
      }
      SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      head->span = SpanFrom(first);
      return Status::OK();
    }
  }

  StatusOr<Atom> ParseAtom() {
    const Token& first = Peek();
    if (!At(TokenKind::kIdent)) {
      return Error(StrCat("expected predicate name, found ",
                          TokenKindToString(Peek().kind)));
    }
    Atom atom;
    atom.predicate = Advance().text;
    if (!At(TokenKind::kLParen)) {
      atom.span = SpanFrom(first);
      return atom;  // propositional atom
    }
    Advance();
    while (true) {
      SEPREC_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.args.push_back(std::move(term));
      if (At(TokenKind::kComma)) {
        Advance();
        continue;
      }
      SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      atom.span = SpanFrom(first);
      return atom;
    }
  }

  StatusOr<Term> ParseTerm() {
    if (At(TokenKind::kVar)) {
      return Term::Var(Advance().text);
    }
    if (At(TokenKind::kIdent)) {
      return Term::Sym(Advance().text);
    }
    if (At(TokenKind::kInt)) {
      return Term::Int(Advance().int_value);
    }
    if (At(TokenKind::kMinus) && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokenKind::kInt) {
      Advance();
      return Term::Int(-Advance().int_value);
    }
    return Error(StrCat("expected term, found ",
                        TokenKindToString(Peek().kind)));
  }

  // The deepest expression tree a rule may hold. The parser and every
  // later pass walk expressions recursively, so a request nesting
  // parentheses or chaining operators without bound would exhaust the
  // stack; like the JSON parser's kMaxDepth, the bound turns that into a
  // parse error.
  static constexpr int kMaxExprDepth = 256;

  // Expression depth counts nesting and operator chains alike: a leaf is
  // 1, and each parenthesis or operator above it adds one. `nesting` is
  // the number of open parentheses, checked before recursing into
  // another; `*depth` receives the parsed expression's depth.
  Status CheckExprDepth(int depth) const {
    if (depth <= kMaxExprDepth) return Status::OK();
    return Error(StrCat("expression nested deeper than ", kMaxExprDepth,
                        " levels"));
  }

  StatusOr<Expr> ParseExpr(int nesting, int* depth) {
    SEPREC_ASSIGN_OR_RETURN(Expr lhs, ParseMulExpr(nesting, depth));
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      Expr::Op op = At(TokenKind::kPlus) ? Expr::Op::kAdd : Expr::Op::kSub;
      Advance();
      int rhs_depth = 0;
      SEPREC_ASSIGN_OR_RETURN(Expr rhs, ParseMulExpr(nesting, &rhs_depth));
      *depth = std::max(*depth, rhs_depth) + 1;
      SEPREC_RETURN_IF_ERROR(CheckExprDepth(*depth));
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<Expr> ParseMulExpr(int nesting, int* depth) {
    SEPREC_ASSIGN_OR_RETURN(Expr lhs, ParseExprUnit(nesting, depth));
    while (true) {
      Expr::Op op;
      if (At(TokenKind::kStar)) {
        op = Expr::Op::kMul;
      } else if (At(TokenKind::kSlash)) {
        op = Expr::Op::kDiv;
      } else if (At(TokenKind::kIdent) && Peek().text == "mod") {
        op = Expr::Op::kMod;
      } else {
        return lhs;
      }
      Advance();
      int rhs_depth = 0;
      SEPREC_ASSIGN_OR_RETURN(Expr rhs, ParseExprUnit(nesting, &rhs_depth));
      *depth = std::max(*depth, rhs_depth) + 1;
      SEPREC_RETURN_IF_ERROR(CheckExprDepth(*depth));
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  StatusOr<Expr> ParseExprUnit(int nesting, int* depth) {
    if (At(TokenKind::kLParen)) {
      SEPREC_RETURN_IF_ERROR(CheckExprDepth(nesting + 1));
      Advance();
      SEPREC_ASSIGN_OR_RETURN(Expr inner, ParseExpr(nesting + 1, depth));
      SEPREC_RETURN_IF_ERROR(CheckExprDepth(++*depth));
      SEPREC_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    SEPREC_ASSIGN_OR_RETURN(Term term, ParseTerm());
    *depth = 1;
    return Expr::Leaf(std::move(term));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// "line N, col M: message" -> a P001 diagnostic at N:M. Falls back to an
// unknown location if the status message carries none.
Diagnostic StatusToParseDiagnostic(const Status& status) {
  Diagnostic d;
  d.code = "P001";
  d.severity = Severity::kError;
  d.message = status.message();
  int line = 0, col = 0;
  if (std::sscanf(status.message().c_str(), "line %d, col %d", &line, &col) ==
      2) {
    d.span.line = line;
    d.span.col = col;
    d.span.end_line = line;
    d.span.end_col = col + 1;
    // Strip the redundant location prefix from the message.
    size_t colon = status.message().find(": ");
    if (colon != std::string::npos) {
      d.message = status.message().substr(colon + 2);
    }
  }
  return d;
}

}  // namespace

StatusOr<ParsedUnit> ParseUnit(std::string_view source) {
  SEPREC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.ParseUnit();
}

StatusOr<ParsedUnit> ParseUnit(std::string_view source, DiagnosticSink* sink) {
  StatusOr<ParsedUnit> unit = ParseUnit(source);
  if (!unit.ok() && sink != nullptr) {
    sink->Add(StatusToParseDiagnostic(unit.status()));
  }
  return unit;
}

StatusOr<Program> ParseProgram(std::string_view source) {
  SEPREC_ASSIGN_OR_RETURN(ParsedUnit unit, ParseUnit(source));
  if (!unit.queries.empty()) {
    return InvalidArgumentError(
        StrCat("unexpected query in program text: ",
               unit.queries.front().ToString()));
  }
  return std::move(unit.program);
}

StatusOr<Atom> ParseAtom(std::string_view source) {
  SEPREC_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Tokenize(StrCat(source, " .")));
  // Reuse the unit parser on "atom ." and extract the fact head.
  Parser parser(std::move(tokens));
  SEPREC_ASSIGN_OR_RETURN(ParsedUnit unit, parser.ParseUnit());
  if (unit.program.rules.size() != 1 || !unit.program.rules[0].body.empty() ||
      !unit.queries.empty()) {
    return InvalidArgumentError(StrCat("not a single atom: ", source));
  }
  return std::move(unit.program.rules[0].head);
}

Program ParseProgramOrDie(std::string_view source) {
  StatusOr<Program> result = ParseProgram(source);
  if (!result.ok()) {
    std::fprintf(stderr, "ParseProgramOrDie: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

Atom ParseAtomOrDie(std::string_view source) {
  StatusOr<Atom> result = ParseAtom(source);
  if (!result.ok()) {
    std::fprintf(stderr, "ParseAtomOrDie: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace seprec
