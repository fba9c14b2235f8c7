"""A small observable-expression language.

Grammar (infix, standard precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' INTEGER)?        # exponent: positive integer literal
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``i`` is the imaginary unit.  ``t`` is the time symbol, bound by the
evaluation context to one time or to a tuple of k times.  Bound to k
times, a scalar subtree that references ``t`` is evaluated per time in
Python complex arithmetic and an operator subtree as one (k, d, d) stack;
one time is the case k = 1.  A subtree that does not reference ``t`` is
evaluated once per context and reused; no sum is re-associated, so the
values are those of one evaluation per time, bit for bit.

Scalar functions ``cos``, ``sin``, ``exp``, ``expi`` (exp of i times) apply
by spectral calculus and require Hermitian arguments; a value that is not
finite fails the evaluation.  ``dag`` is the structural Hermitian
transpose.  Every other identifier is resolved by the context, either to a
matrix (generators such as ``Q``, ``P``) or to a scalar constant (``hbar``,
``m``, ``omega``, ...).

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
    differ between processes.  :func:`references_time` is cached on the node
    the same way.
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
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_timed")}

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

# How deep an expression may nest: parentheses, calls and signs as written, and the
# levels of its tree, where a sum or product of n terms takes n.  The parser, the
# memo's first hash and the evaluator recurse per level, so a deeper expression is a
# syntax error rather than a RecursionError.
MAX_DEPTH = 128


def _height(node: Node) -> int:
    """Levels of the tree under ``node``, counted without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [child for n in level for child in vars(n).values() if isinstance(child, Node)]
    return height


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

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

    def too_deep(self) -> ExprSyntaxError:
        tok = self.current
        return ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels",
                               tok.line, tok.col)

    def nested(self, rule) -> Node:
        """``rule()`` one level deeper: inside parentheses, a call or a sign."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.too_deep()
        node = rule()
        self.depth -= 1
        return node

    def parse(self) -> Node:
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        if _height(node) > MAX_DEPTH:
            raise self.too_deep()
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
            return make_neg(self.nested(self.factor))
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.nested(self.factor)
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
        if tok.kind == "number":  # float() rounds an integer literal as int() would, or to inf
            self.advance()
            return Num(complex(float(tok.text)))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "op" and self.current.text == "(":
                self.advance()
                arg = self.nested(self.expr)
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
            node = self.nested(self.expr)
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
    """Bindings for evaluation: matrices for generators, scalars for constants.

    ``t`` is one time, a tuple of times, or unbound.  ``fixed`` holds the value of
    each evaluated subtree that does not reference ``t``, shared by the ``with_t``
    copies of a context: the bindings it depends on do not change.
    """

    dim: int
    operators: Mapping[str, PseudoObservable] = field(default_factory=dict)
    constants: Mapping[str, complex] = field(default_factory=dict)
    t: float | tuple[float, ...] | None = None
    fixed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def with_t(self, t) -> "EvalContext":
        """This context with ``t`` bound to one time, or to a sequence of times."""
        t = float(t) if np.ndim(t) == 0 else tuple(float(s) for s in t)
        ctx = EvalContext(self.dim, self.operators, self.constants, t)
        object.__setattr__(ctx, "fixed", self.fixed)
        return ctx


def _eval(node: Node, ctx: EvalContext):
    """Structural evaluation; a subtree that does not reference t is read from ``ctx.fixed``.

    A value that does not depend on t is a complex scalar or a d x d matrix.  One
    that does holds a value per bound time: a list of complex scalars, or a
    (k, d, d) stack of matrices.
    """
    if references_time(node):
        return _eval_node(node, ctx, _eval)
    value = ctx.fixed.get(node)
    if value is None:  # its subtrees are not kept: one value per fixed subtree
        value = ctx.fixed[node] = _eval_node(node, ctx, _eval_fixed)
    return value


def _eval_fixed(node: Node, ctx: EvalContext):
    """Evaluation inside a subtree that does not reference t; no part of it is kept."""
    return _eval_node(node, ctx, _eval_fixed)


def _scalars(value) -> bool:
    """Whether a value is a scalar, or a scalar per time, rather than matrices."""
    return not isinstance(value, np.ndarray)


def _per_time(op, *values):
    """``op`` of Python complex scalars, per time when a value holds one per time."""
    if not any(isinstance(v, list) for v in values):
        return op(*values)
    k = max(len(v) for v in values if isinstance(v, list))
    return [op(*args) for args in zip(*(v if isinstance(v, list) else [v] * k
                                       for v in values))]


def _as_matrix(value, dim: int):
    """A scalar as scalar * 1, one per time for a list; a matrix or stack as it is."""
    if isinstance(value, list):
        return np.array(value)[:, None, None] * np.eye(dim, dtype=complex)
    if _scalars(value):
        return value * np.eye(dim, dtype=complex)
    return value


def _scaled(value):
    """A factor of an elementwise product with matrices: one scalar per time as a
    (k, 1, 1) array, anything else as it is."""
    return np.array(value)[:, None, None] if isinstance(value, list) else value


def _eval_node(node: Node, ctx: EvalContext, sub):
    """One level of evaluation; ``sub`` evaluates the children."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Sym):
        name = node.name
        if name == _TIME_NAME:
            if ctx.t is None:
                raise ExprEvalError("the time symbol 't' is not bound")
            return [complex(t) for t in (ctx.t if isinstance(ctx.t, tuple) else (ctx.t,))]
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
        val = sub(node.operand, ctx)
        return _per_time(lambda x: -x, val) if _scalars(val) else -val
    if isinstance(node, Dag):
        val = sub(node.operand, ctx)
        if _scalars(val):
            return _per_time(lambda x: x.conjugate(), val)
        return val.conj().swapaxes(-1, -2)
    if isinstance(node, Add) or isinstance(node, Sub):
        left, right = sub(node.left, ctx), sub(node.right, ctx)
        add = isinstance(node, Add)
        if _scalars(left) and _scalars(right):
            return _per_time(lambda a, b: a + b if add else a - b, left, right)
        left, right = _as_matrix(left, ctx.dim), _as_matrix(right, ctx.dim)
        return left + right if add else left - right
    if isinstance(node, Mul):
        left, right = sub(node.left, ctx), sub(node.right, ctx)
        if _scalars(left) and _scalars(right):
            return _per_time(lambda a, b: a * b, left, right)
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            return left @ right
        return _scaled(left) * _scaled(right)
    if isinstance(node, Div):
        left, right = sub(node.left, ctx), sub(node.right, ctx)
        if isinstance(right, np.ndarray):
            raise ExprEvalError("division by an operator-valued expression")
        if 0 in (right if isinstance(right, list) else [right]):
            raise ExprEvalError("division by zero")
        if _scalars(left):
            return _per_time(lambda a, b: a / b, left, right)
        return left / _scaled(right)
    if isinstance(node, Pow):
        base = sub(node.base, ctx)
        if isinstance(base, np.ndarray):
            return np.linalg.matrix_power(base, node.exponent)
        return _per_time(lambda b: b ** node.exponent, base)
    if isinstance(node, Call):
        if node.func not in SPECTRAL_FUNCTIONS:
            raise ExprEvalError(f"unknown function {node.func!r}")
        f = SPECTRAL_FUNCTIONS[node.func]
        arg = sub(node.arg, ctx)
        if isinstance(arg, np.ndarray):
            defect = np.max(hermiticity_defect(arg))  # the worst matrix of a stack
            if not defect <= TOL_HERM:
                raise ExprEvalError(
                    f"spectral function {node.func!r} requires a finite Hermitian "
                    f"argument (defect {defect:.3e})")
            with np.errstate(over="ignore", invalid="ignore"):  # reported as not finite
                value = _function_entries(f, arg)
            if not np.isfinite(value).all():
                raise ExprEvalError(f"spectral function {node.func!r} has a value that is "
                                    f"not finite")
            return value
        with np.errstate(over="ignore", invalid="ignore"):
            value = _per_time(lambda x: complex(f(complex(x))), arg)
        for x, y in zip(*(v if isinstance(v, list) else [v] for v in (arg, value))):
            if not cmath.isfinite(y):
                raise ExprEvalError(f"{node.func}({x!r}) is not finite")
        return value
    raise ExprEvalError(f"cannot evaluate node {node!r}")


def evaluate(node: ObservableExpr, ctx: EvalContext):
    """Evaluate to an algebra element; scalars promote to gamma * identity.

    Returns an :class:`~obsalg.core.Observable` when the value happens to be
    Hermitian (checked after evaluation, never assumed).  With ``t`` bound to a
    tuple of k times, returns the entries of the k values instead, as one (k, d, d)
    stack, unprobed.
    """
    try:
        value = _eval(node, ctx)
    except OverflowError as exc:  # a scalar beyond float range: cmath and complex ** raise
        raise ExprEvalError(f"scalar overflow: {exc}") from exc
    entries = _as_matrix(value, ctx.dim)
    if isinstance(ctx.t, tuple):  # one row per time, repeated if it does not depend on t
        return np.broadcast_to(entries, (len(ctx.t), ctx.dim, ctx.dim))
    return _wrap_like(entries[0] if entries.ndim == 3 else entries, None)


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
    """Central difference in the explicit time argument, generators frozen.  A failure
    to evaluate at t + h or t - h names that time."""
    if ctx.t is None:
        raise ExprEvalError("the time symbol 't' is not bound")
    if not h > 0:
        raise ExprEvalError(f"step must be positive, got {h}")
    values = []
    for t in (ctx.t + h, ctx.t - h):
        try:
            values.append(evaluate(node, ctx.with_t(t)))
        except AlgebraError as exc:
            raise ExprEvalError(f"{exc} at t = {t!r}") from exc
    ahead, behind = values
    return (ahead - behind) / (2 * h)


def references_time(node: ObservableExpr) -> bool:
    """Whether the expression mentions the time symbol; computed once per node."""
    timed = node.__dict__.get("_timed")
    if timed is None:
        if isinstance(node, Sym):
            timed = node.name == _TIME_NAME
        else:
            timed = any(references_time(child) for child in vars(node).values()
                        if isinstance(child, Node))
        object.__setattr__(node, "_timed", timed)
    return timed
