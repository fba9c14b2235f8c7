"""A small observable-expression language.

Grammar (infix, standard precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' INTEGER)?        # exponent: positive integer literal
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``i`` is the imaginary unit.  ``t`` is the time symbol, bound by the
evaluation context.  Scalar functions ``cos``, ``sin``, ``exp``, ``expi``
(exp of i times) apply by spectral calculus and require Hermitian arguments;
``dag`` is the structural Hermitian transpose.  Every other identifier is
resolved by the context, either to a matrix (generators such as ``Q``, ``P``)
or to a scalar constant (``hbar``, ``m``, ``omega``, ...).

Products of non-commuting generators keep their written order; no
symmetrization is applied.  Hermiticity of results is checked by consumers
after evaluation, never assumed.

Time reversal substitutes ``P_i -> -P_i`` and ``t -> -t`` (coordinates and
constants untouched), then transposes the whole expression with ``dag``;
identifiers named ``P`` or ``P<digits>`` count as momenta.  Double negations
and double daggers cancel structurally, so the substitution is an exact
involution on ASTs.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .core import (
    AlgebraError,
    Observable,
    PseudoObservable,
    _function_entries,
    _wrap_like,
    hermiticity_defect,
    TOL_HERM,
)

_MOMENTUM_NAME = re.compile(r"P\d*\Z")
_TIME_NAME = "t"

SPECTRAL_FUNCTIONS = {
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "expi": lambda x: cmath.exp(1j * x),
}


class ExprSyntaxError(AlgebraError):
    """Malformed source text, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprEvalError(AlgebraError):
    """Evaluation failure: unbound identifier, bad operand, dim mismatch."""


# --- AST -----------------------------------------------------------------------

def _node(cls):
    """A frozen dataclass whose structural hash is computed once per node.

    Nodes key the Hamiltonian's value memo, so a lookup would otherwise hash
    the whole tree again.  The cached hash is not pickled: string hashes
    differ between processes.
    """
    cls = dataclass(frozen=True)(cls)
    structural_hash = cls.__hash__

    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = structural_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class Num:
    value: complex


@_node
class Sym:
    name: str


@_node
class Neg:
    operand: "Node"


@_node
class Dag:
    operand: "Node"


@_node
class Add:
    left: "Node"
    right: "Node"


@_node
class Sub:
    left: "Node"
    right: "Node"


@_node
class Mul:
    left: "Node"
    right: "Node"


@_node
class Div:
    left: "Node"
    right: "Node"


@_node
class Pow:
    base: "Node"
    exponent: int


@_node
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Sym, Neg, Dag, Add, Sub, Mul, Div, Pow, Call]
ObservableExpr = Node


def make_neg(operand: Node) -> Node:
    return operand.operand if isinstance(operand, Neg) else Neg(operand)


def make_dag(operand: Node) -> Node:
    return operand.operand if isinstance(operand, Dag) else Dag(operand)


# --- tokenizer -------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str          # 'number' | 'ident' | 'op' | 'end'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.advance().text
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Node:
        tok = self.current
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return make_neg(self.factor())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            tok = self.current
            if tok.kind != "number" or not tok.text.isdigit() or int(tok.text) < 1:
                raise ExprSyntaxError(
                    "exponent must be a positive integer literal", tok.line, tok.col)
            self.advance()
            return Pow(base, int(tok.text))
        return base

    def atom(self) -> Node:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            text = tok.text
            return Num(complex(int(text) if text.isdigit() else float(text)))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "op" and self.current.text == "(":
                self.advance()
                arg = self.expr()
                if self.current.kind == "op" and self.current.text == ",":
                    extra = self.current
                    raise ExprSyntaxError(
                        f"function {tok.text!r} takes a single argument",
                        extra.line, extra.col)
                self.expect_op(")")
                return make_dag(arg) if tok.text == "dag" else Call(tok.text, arg)
            if tok.text == "i":
                return Num(1j)
            return Sym(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line, tok.col)


def parse(source: str) -> ObservableExpr:
    """Parse source text into an expression AST."""
    return _Parser(source).parse()


# --- printing ----------------------------------------------------------------------

_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4,
               Num: 5, Sym: 5, Call: 5, Dag: 5}


def _prec(node: Node) -> int:
    return _PRECEDENCE[type(node)]


def _fmt_number(value: complex) -> str:
    if value.imag == 0:
        real = value.real
        return str(int(real)) if real == int(real) and abs(real) < 1e15 else repr(real)
    if value.real == 0:
        if value.imag == 1:
            return "i"
        return f"{_fmt_number(complex(value.imag))}*i"
    return f"({_fmt_number(complex(value.real))}+{_fmt_number(complex(value.imag))}*i)"


def unparse(node: Node) -> str:
    """Render an AST back to source; parse(unparse(e)) == e for parser output."""
    def wrap(child: Node, level: int) -> str:
        text = unparse(child)
        return f"({text})" if _prec(child) < level else text

    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, 4)
    if isinstance(node, Dag):
        return f"dag({unparse(node.operand)})"
    if isinstance(node, Add):
        return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
    if isinstance(node, Sub):
        return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
    if isinstance(node, Mul):
        return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
    if isinstance(node, Div):
        return f"{wrap(node.left, 2)}/{wrap(node.right, 3)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{node.exponent}"
    return f"{node.func}({unparse(node.arg)})"


# --- evaluation ---------------------------------------------------------------------

@dataclass(frozen=True)
class EvalContext:
    """Bindings for evaluation: matrices for generators, scalars for constants."""

    dim: int
    operators: Mapping[str, PseudoObservable] = field(default_factory=dict)
    constants: Mapping[str, complex] = field(default_factory=dict)
    t: float | None = None

    def with_t(self, t: float) -> "EvalContext":
        return EvalContext(self.dim, self.operators, self.constants, float(t))


def _eval(node: Node, ctx: EvalContext):
    """Structural evaluation to a complex scalar or a dense matrix."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        name = node.name
        if name == _TIME_NAME:
            if ctx.t is None:
                raise ExprEvalError("the time symbol 't' is not bound")
            return complex(ctx.t)
        if name in ctx.operators:
            bound = ctx.operators[name]
            arr = np.asarray(getattr(bound, "entries", bound), dtype=complex)
            if arr.shape != (ctx.dim, ctx.dim):
                raise ExprEvalError(
                    f"operator {name!r} has shape {arr.shape}, expected "
                    f"({ctx.dim}, {ctx.dim})")
            return arr
        if name in ctx.constants:
            return complex(ctx.constants[name])
        raise ExprEvalError(f"unbound identifier {name!r}")
    if isinstance(node, Neg):
        return -_eval(node.operand, ctx)
    if isinstance(node, Dag):
        val = _eval(node.operand, ctx)
        return val.conj().T if isinstance(val, np.ndarray) else val.conjugate()
    if isinstance(node, Add) or isinstance(node, Sub):
        left, right = _eval(node.left, ctx), _eval(node.right, ctx)
        left, right = _promote_pair(left, right, ctx.dim)
        return left + right if isinstance(node, Add) else left - right
    if isinstance(node, Mul):
        left, right = _eval(node.left, ctx), _eval(node.right, ctx)
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            return left @ right
        return left * right
    if isinstance(node, Div):
        left, right = _eval(node.left, ctx), _eval(node.right, ctx)
        if isinstance(right, np.ndarray):
            raise ExprEvalError("division by an operator-valued expression")
        if right == 0:
            raise ExprEvalError("division by zero")
        return left / right
    if isinstance(node, Pow):
        base = _eval(node.base, ctx)
        if isinstance(base, np.ndarray):
            return np.linalg.matrix_power(base, node.exponent)
        return base ** node.exponent
    if isinstance(node, Call):
        if node.func not in SPECTRAL_FUNCTIONS:
            raise ExprEvalError(f"unknown function {node.func!r}")
        f = SPECTRAL_FUNCTIONS[node.func]
        arg = _eval(node.arg, ctx)
        if isinstance(arg, np.ndarray):
            defect = hermiticity_defect(arg)
            if not defect <= TOL_HERM:
                raise ExprEvalError(
                    f"spectral function {node.func!r} requires a finite Hermitian "
                    f"argument (defect {defect:.3e})")
            return _function_entries(f, Observable._trusted(arg))
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(f(complex(arg)))
        if not cmath.isfinite(value):
            raise ExprEvalError(f"{node.func}({arg!r}) is not finite")
        return value
    raise ExprEvalError(f"cannot evaluate node {node!r}")


def _promote_pair(left, right, dim: int):
    if isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
        right = right * np.eye(dim, dtype=complex)
    elif isinstance(right, np.ndarray) and not isinstance(left, np.ndarray):
        left = left * np.eye(dim, dtype=complex)
    return left, right


def evaluate(node: ObservableExpr, ctx: EvalContext) -> PseudoObservable:
    """Evaluate to an algebra element; scalars promote to gamma * identity.

    Returns an :class:`~obsalg.core.Observable` when the value happens to be
    Hermitian (checked after evaluation, never assumed).
    """
    value = _eval(node, ctx)
    if not isinstance(value, np.ndarray):
        value = value * np.eye(ctx.dim, dtype=complex)
    return _wrap_like(value, None)


# --- time reversal -------------------------------------------------------------------

def _flips_sign(name: str) -> bool:
    return name == _TIME_NAME or bool(_MOMENTUM_NAME.match(name))


def _substitute(node: Node) -> Node:
    if isinstance(node, Sym):
        return Neg(node) if _flips_sign(node.name) else node
    if isinstance(node, Num):
        return node
    if isinstance(node, Neg):
        inner = node.operand
        if isinstance(inner, Sym) and _flips_sign(inner.name):
            return inner
        return make_neg(_substitute(inner))
    if isinstance(node, Dag):
        return make_dag(_substitute(node.operand))
    if isinstance(node, (Add, Sub, Mul, Div)):
        return type(node)(_substitute(node.left), _substitute(node.right))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base), node.exponent)
    return Call(node.func, _substitute(node.arg))


def time_reverse(node: ObservableExpr) -> ObservableExpr:
    """Time reversal: P_i -> -P_i and t -> -t, then a whole-expression dagger.

    An exact structural involution: reversing twice returns the original AST.
    """
    return make_dag(_substitute(node))


def explicit_time_derivative(node: ObservableExpr, ctx: EvalContext,
                             h: float) -> PseudoObservable:
    """Central difference in the explicit time argument, generators frozen."""
    if ctx.t is None:
        raise ExprEvalError("the time symbol 't' is not bound")
    if not h > 0:
        raise ExprEvalError(f"step must be positive, got {h}")
    ahead = evaluate(node, ctx.with_t(ctx.t + h))
    behind = evaluate(node, ctx.with_t(ctx.t - h))
    return (ahead - behind) / (2 * h)


def references_time(node: ObservableExpr) -> bool:
    """Whether the expression mentions the time symbol."""
    if isinstance(node, Sym):
        return node.name == _TIME_NAME
    if isinstance(node, Num):
        return False
    if isinstance(node, (Neg, Dag)):
        return references_time(node.operand)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return references_time(node.left) or references_time(node.right)
    if isinstance(node, Pow):
        return references_time(node.base)
    return references_time(node.arg)
