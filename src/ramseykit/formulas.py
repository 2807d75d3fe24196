"""First-order formulas and terms, evaluated by direct model checking.

The grammar covers what finite-scale work needs: relation atoms, term
equalities (terms may stack partial function applications on variables
and constants), negation, conjunction, disjunction, implication, and
quantifiers ranging over the finite domain.  One tokenizer and one descent
read it; a character outside every token raises ``FormulaError``.

Partial functions give atoms a strictness convention: an atom whose term
fails to denote is false (so its negation is true).  Variables are
written ``x0, x1, ...``; a formula's arity is one past its largest free
variable index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .structures import InputError, Structure


class FormulaError(InputError):
    """Parse or evaluation error for formulas."""


# -- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class ConstTerm:
    name: str


@dataclass(frozen=True)
class FuncTerm:
    name: str
    args: tuple


Term = Var | ConstTerm | FuncTerm


def eval_term(M: Structure, term, env: dict[int, int]) -> int | None:
    """Value of a term under an assignment; None when undefined."""
    if isinstance(term, Var):
        if term.index not in env:
            raise FormulaError(f"unbound variable x{term.index}")
        return env[term.index]
    if isinstance(term, ConstTerm):
        if term.name not in M.signature.constants:
            raise FormulaError(f"unknown constant {term.name!r}")
        return M.const(term.name)
    vals = []
    for a in term.args:
        v = eval_term(M, a, env)
        if v is None:
            return None
        vals.append(v)
    if M.signature.fn_arity(term.name) != len(vals):
        raise FormulaError(f"function {term.name!r} applied to {len(vals)} arguments")
    return M.fn_value(term.name, tuple(vals))


def term_variables(term) -> set[int]:
    if isinstance(term, Var):
        return {term.index}
    if isinstance(term, ConstTerm):
        return set()
    out: set[int] = set()
    for a in term.args:
        out |= term_variables(a)
    return out


# -- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class RelAtom:
    name: str
    args: tuple


@dataclass(frozen=True)
class EqAtom:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quant:
    kind: str  # "exists" | "forall"
    var: int
    body: "Formula"


Formula = RelAtom | EqAtom | Not | And | Or | Implies | Quant


def free_variables(phi) -> set[int]:
    if isinstance(phi, RelAtom):
        out: set[int] = set()
        for t in phi.args:
            out |= term_variables(t)
        return out
    if isinstance(phi, EqAtom):
        return term_variables(phi.left) | term_variables(phi.right)
    if isinstance(phi, Not):
        return free_variables(phi.sub)
    if isinstance(phi, (And, Or, Implies)):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, Quant):
        return free_variables(phi.body) - {phi.var}
    raise FormulaError(f"not a formula: {phi!r}")


def formula_arity(phi) -> int:
    fv = free_variables(phi)
    return max(fv) + 1 if fv else 0


def formula_symbols(phi) -> set[tuple[str, str, int]]:
    """``(kind, name, arity)`` of each symbol a formula or term uses; constants have arity 0."""
    if isinstance(phi, Var):
        return set()
    if isinstance(phi, ConstTerm):
        return {("constant", phi.name, 0)}
    if isinstance(phi, (RelAtom, FuncTerm)):
        kind = "relation" if isinstance(phi, RelAtom) else "function"
        return {(kind, phi.name, len(phi.args))}.union(*map(formula_symbols, phi.args))
    if isinstance(phi, Not):
        return formula_symbols(phi.sub)
    if isinstance(phi, Quant):
        return formula_symbols(phi.body)
    return formula_symbols(phi.left) | formula_symbols(phi.right)


def eval_formula(M: Structure, phi, env: dict[int, int]) -> bool:
    """Truth under an assignment.  Atoms with undefined terms are false."""
    if isinstance(phi, RelAtom):
        if M.signature.rel_arity(phi.name) != len(phi.args):
            raise FormulaError(f"relation {phi.name!r} applied to {len(phi.args)} arguments")
        vals = []
        for t in phi.args:
            v = eval_term(M, t, env)
            if v is None:
                return False
            vals.append(v)
        return M.holds(phi.name, tuple(vals))
    if isinstance(phi, EqAtom):
        lv = eval_term(M, phi.left, env)
        rv = eval_term(M, phi.right, env)
        return lv is not None and rv is not None and lv == rv
    if isinstance(phi, Not):
        return not eval_formula(M, phi.sub, env)
    if isinstance(phi, And):
        return eval_formula(M, phi.left, env) and eval_formula(M, phi.right, env)
    if isinstance(phi, Or):
        return eval_formula(M, phi.left, env) or eval_formula(M, phi.right, env)
    if isinstance(phi, Implies):
        return (not eval_formula(M, phi.left, env)) or eval_formula(M, phi.right, env)
    if isinstance(phi, Quant):
        envs = (env | {phi.var: v} for v in range(M.size))
        if phi.kind == "exists":
            return any(eval_formula(M, phi.body, e) for e in envs)
        return all(eval_formula(M, phi.body, e) for e in envs)
    raise FormulaError(f"not a formula: {phi!r}")


def eval_on_tuple(M: Structure, phi, values) -> bool:
    """Evaluate with x_i bound to values[i]."""
    return eval_formula(M, phi, {i: v for i, v in enumerate(values)})


# -- concrete syntax ---------------------------------------------------------

# punctuation | a name, keywords included | a character no token covers
_TOKEN = re.compile(r"\s*(?:(->|[()=,.~&|])|([A-Za-z_][A-Za-z0-9_]*|[<>]=?)|(\S))")
_PUNCT = {"->", *"()=,.~&|"}
_VAR = re.compile(r"x(\d+)")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then "" for its end."""
    out = []
    for m in _TOKEN.finditer(text):
        if m[3]:
            raise FormulaError(f"unexpected character {m[3]!r} at position {m.start(3)}")
        out.append(m[1] or m[2])
    return out + [""]


# a parsed tree has at most this many levels, so that every recursive walk
# of it stays far inside Python's recursion limit
MAX_DEPTH = 50
# rendering opens at most four parser rules per level of the tree (for a
# quantifier: its own, the formula after the dot, the parenthesis and the
# formula inside it), plus the outermost formula; so a rendered tree
# within MAX_DEPTH parses again
_MAX_OPEN_RULES = 4 * MAX_DEPTH + 1


def _too_deep() -> FormulaError:
    return FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")


def _nested(rule):
    """Count one open parser rule while ``rule`` parses."""
    def counted(self):
        self.depth += 1
        if self.depth > _MAX_OPEN_RULES:
            raise _too_deep()
        out = rule(self)
        self.depth -= 1
        return out
    return counted


def _tree_depth(tree) -> int:
    """Levels of a formula or term tree, walked with an explicit stack."""
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if not isinstance(child, (str, int)):
                    stack.append((child, level + 1))
    return deepest


class _Parser:
    """Recursive descent with one token of lookahead and no backtracking.

    ``depth`` counts the rules open at the current token, which bounds the
    recursion; an ``&`` or ``|`` chain deepens the tree without recursing,
    so :meth:`whole` bounds the finished tree's depth as well.
    """

    def __init__(self, text: str):
        self.toks, self.i, self.depth = _tokenize(text), 0, 0

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if not tok or expected not in (None, tok):
            raise FormulaError(f"expected {repr(expected) if expected else 'more'}, "
                               f"found {repr(tok) if tok else 'the end of the formula'}")
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        found = self.toks[self.i] == tok
        self.i += found
        return found

    def fold(self, op: str, node, operand):
        out = operand()
        while self.accept(op):
            out = node(out, operand())
        return out

    @_nested
    def formula(self):
        # `->` binds loosest and associates to the right
        left = self.fold("|", Or, lambda: self.fold("&", And, self.unary))
        return Implies(left, self.formula()) if self.accept("->") else left

    @_nested
    def unary(self):
        if self.toks[self.i] in ("forall", "exists"):
            kind, var = self.take(), self.term()
            if not isinstance(var, Var):
                raise FormulaError(f"expected a variable, found {render_term(var)!r}")
            self.take(".")
            # the scope runs as far right as the formula goes
            return Quant(kind, var.index, self.formula())
        if self.accept("~"):
            return Not(self.unary())
        if self.accept("("):
            inner = self.formula()
            self.take(")")
            return inner
        left = self.term()
        if isinstance(left, FuncTerm) and self.toks[self.i] != "=":
            return RelAtom(left.name, left.args)
        self.take("=")
        return EqAtom(left, self.term())

    @_nested
    def term(self):
        name = self.take()
        if name in _PUNCT:
            raise FormulaError(f"expected a name, found {name!r}")
        if not self.accept("("):
            m = _VAR.fullmatch(name)
            return Var(int(m[1])) if m else ConstTerm(name)
        args = [self.term()]
        while self.accept(","):
            args.append(self.term())
        self.take(")")
        return FuncTerm(name, tuple(args))

    def whole(self, rule):
        out = rule()
        if self.toks[self.i]:
            raise FormulaError(f"trailing input at {self.toks[self.i]!r}")
        if _tree_depth(out) > MAX_DEPTH:
            raise _too_deep()
        return out


def parse_formula(text: str):
    """Parse one formula from concrete syntax.

    Symbols are resolved against a signature only at evaluation time, with
    one syntactic exception: a bare name in term position parses as a
    constant, ``x<digits>`` as a variable.
    """
    p = _Parser(text)
    return p.whole(p.formula)


def parse_term(text: str):
    p = _Parser(text)
    return p.whole(p.term)


def render_term(t) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, ConstTerm):
        return t.name
    return f"{t.name}({', '.join(render_term(a) for a in t.args)})"


def render_formula(phi) -> str:
    """Concrete syntax; parses back to an equal tree."""
    if isinstance(phi, RelAtom):
        return f"{phi.name}({', '.join(render_term(a) for a in phi.args)})"
    if isinstance(phi, EqAtom):
        return f"{render_term(phi.left)} = {render_term(phi.right)}"
    if isinstance(phi, Not):
        return f"~({render_formula(phi.sub)})"
    if isinstance(phi, And):
        return f"({render_formula(phi.left)} & {render_formula(phi.right)})"
    if isinstance(phi, Or):
        return f"({render_formula(phi.left)} | {render_formula(phi.right)})"
    if isinstance(phi, Implies):
        return f"({render_formula(phi.left)} -> {render_formula(phi.right)})"
    if isinstance(phi, Quant):
        return f"{phi.kind} x{phi.var}. ({render_formula(phi.body)})"
    raise FormulaError(f"not a formula: {phi!r}")
