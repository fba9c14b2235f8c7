
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsalg.canonical import make_canonical_pair, make_position
from obsalg.core import Observable, PseudoObservable, opnorm
from obsalg.expr import (
    Add,
    Call,
    Div,
    EvalContext,
    ExprEvalError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sym,
    evaluate,
    explicit_time_derivative,
    parse,
    references_time,
    time_reverse,
    unparse,
)


@pytest.fixture
def osc_ctx():
    pair = make_canonical_pair(make_position(16, 0.25), hbar=1.0)
    return EvalContext(
        dim=pair.dim,
        operators={"Q": pair.q.observable, "P": pair.p},
        constants={"m": 1.0, "omega": 1.0, "hbar": 1.0},
        t=0.0,
    ), pair


OSC = "P^2/(2*m) + (m*omega^2/2)*Q^2"


# --- parsing -----------------------------------------------------------------

def test_parse_single_generator():
    assert parse("Q") == Sym("Q")


def test_parse_oscillator_ast_shape():
    # hand-built oracle tree: two product terms around the top-level +
    expected = Add(
        Div(Pow(Sym("P"), 2), Mul(Num(2), Sym("m"))),
        Mul(Mul(Mul(Sym("m"), Pow(Sym("omega"), 2)), Div(Num(1), Num(2))), Pow(Sym("Q"), 2)),
    )
    got = parse(OSC)
    assert isinstance(got, Add)
    assert got.left == expected.left
    # right term: a scalar prefactor times Q^2
    assert isinstance(got.right, Mul)
    assert got.right.right == Pow(Sym("Q"), 2)


def test_parse_precedence():
    assert parse("1 + 2*Q") == Add(Num(1), Mul(Num(2), Sym("Q")))
    assert parse("-Q^2") == Neg(Pow(Sym("Q"), 2))
    assert parse("(-Q)^2") == Pow(Neg(Sym("Q")), 2)
    assert parse("2*i") == Mul(Num(2), Num(1j))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("Q + ")
    assert err.value.line == 1 and err.value.col == 5
    with pytest.raises(ExprSyntaxError, match="line 1, column 3"):
        parse("Q $ P")
    with pytest.raises(ExprSyntaxError, match="positive integer"):
        parse("Q^P")
    with pytest.raises(ExprSyntaxError, match="positive integer"):
        parse("Q^0")
    with pytest.raises(ExprSyntaxError):
        parse("cos(Q, P)")
    with pytest.raises(ExprSyntaxError):
        parse("(Q")


def test_unknown_identifier_deferred_to_evaluation():
    node = parse("mystery + 1")  # parses fine
    with pytest.raises(ExprEvalError, match="unbound identifier 'mystery'"):
        evaluate(node, EvalContext(dim=2))


# --- evaluation -----------------------------------------------------------------

def test_literal_one_is_identity():
    out = evaluate(parse("1"), EvalContext(dim=3))
    assert opnorm(out.entries - np.eye(3)) == 0.0


def test_oscillator_hamiltonian(osc_ctx):
    ctx, pair = osc_ctx
    h = evaluate(parse(OSC), ctx)
    assert isinstance(h, Observable)
    ground = float(np.linalg.eigvalsh(h.entries)[0])
    assert ground > 0.0
    assert ground == pytest.approx(0.5, abs=1e-3)


def test_scalar_time_scaling(osc_ctx):
    ctx, pair = osc_ctx
    out = evaluate(parse("t*Q"), ctx.with_t(2.0))
    assert out.distance(2.0 * pair.q.observable) < 1e-12


def test_euler_formula_in_language(osc_ctx):
    ctx, _ = osc_ctx
    lhs = evaluate(parse("cos(Q) + i*sin(Q)"), ctx)
    rhs = evaluate(parse("expi(Q)"), ctx)
    assert lhs.distance(rhs) < 1e-12


def test_homomorphism_of_evaluation(osc_ctx):
    ctx, _ = osc_ctx
    e1, e2 = parse("Q + 2*P"), parse("P^2 - Q")
    prod = evaluate(parse("(Q + 2*P)*(P^2 - Q)"), ctx)
    split = evaluate(e1, ctx) @ evaluate(e2, ctx)
    assert prod.distance(split) < 1e-10 * max(1.0, split.norm())


def test_written_order_preserved(osc_ctx):
    ctx, pair = osc_ctx
    qp = evaluate(parse("Q*P"), ctx)
    pq = evaluate(parse("P*Q"), ctx)
    assert qp.distance(pq) > 0.1  # non-commuting: order matters


def test_dagger_operator(osc_ctx):
    ctx, _ = osc_ctx
    out = evaluate(parse("dag(i*Q)"), ctx)
    target = evaluate(parse("-i*Q"), ctx)
    assert out.distance(target) < 1e-13


def test_spectral_function_rejects_non_hermitian(osc_ctx):
    ctx, _ = osc_ctx
    with pytest.raises(ExprEvalError, match="Hermitian"):
        evaluate(parse("cos(i*Q)"), ctx)


def test_scalar_spectral_functions_match_cmath(osc_ctx):
    import cmath
    ctx, _ = osc_ctx
    for name, ref in (("cos", cmath.cos), ("sin", cmath.sin), ("exp", cmath.exp),
                      ("expi", lambda x: cmath.exp(1j * x))):
        for x in (0.0, 0.7, -2.5, 31.0):
            out = evaluate(parse(f"{name}(t)*Q"), ctx.with_t(x))
            assert out.distance(ref(x) * ctx.operators["Q"]) == 0.0


def test_scalar_spectral_overflow_rejected(osc_ctx):
    ctx, _ = osc_ctx
    with pytest.raises(ExprEvalError, match="not finite"):
        evaluate(parse("exp(1000*t)*Q"), ctx.with_t(1.0))


def test_division_by_operator_rejected(osc_ctx):
    ctx, _ = osc_ctx
    with pytest.raises(ExprEvalError, match="operator-valued"):
        evaluate(parse("1/Q"), ctx)


def test_unbound_time_rejected():
    with pytest.raises(ExprEvalError, match="'t' is not bound"):
        evaluate(parse("t"), EvalContext(dim=2))


# --- time reversal ----------------------------------------------------------------

def test_reverse_coordinate_untouched(osc_ctx):
    ctx, pair = osc_ctx
    out = evaluate(time_reverse(parse("Q")), ctx)
    assert out.distance(pair.q.observable) < 1e-14


def test_reverse_momentum_negated(osc_ctx):
    ctx, pair = osc_ctx
    out = evaluate(time_reverse(parse("P")), ctx)
    assert out.distance(-1.0 * pair.p) < 1e-14


def test_reverse_indexed_momenta_and_time():
    node = parse("P1 + t*Q1")
    reversed_node = time_reverse(node)
    src = unparse(reversed_node)
    assert "-P1" in src.replace(" ", "") or "dag" in src
    # numeric check in a 2d context
    ctx = EvalContext(dim=2, operators={
        "P1": Observable(np.array([[0.0, 1.0], [1.0, 0.0]])),
        "Q1": Observable(np.diag([1.0, -1.0])),
    }, t=3.0)
    fwd = evaluate(node, ctx)
    rev = evaluate(reversed_node, ctx)
    target = -ctx.operators["P1"].entries + (-3.0) * ctx.operators["Q1"].entries
    assert opnorm(rev.entries - target.conj().T) < 1e-13
    assert opnorm(fwd.entries - (ctx.operators["P1"].entries + 3.0 * ctx.operators["Q1"].entries)) < 1e-13


def test_reverse_oscillator_hamiltonian_fixed(osc_ctx):
    ctx, _ = osc_ctx
    h = evaluate(parse(OSC), ctx)
    h_rev = evaluate(time_reverse(parse(OSC)), ctx)
    assert h_rev.distance(h) <= 1e-12 * max(1.0, h.norm())


def test_reverse_is_structural_involution():
    for src in ("Q", "P", OSC, "t*Q - P^3", "cos(Q) + i*sin(P)", "dag(Q*P)"):
        node = parse(src)
        assert time_reverse(time_reverse(node)) == node


def test_reverse_numerical_involution(osc_ctx):
    ctx, _ = osc_ctx
    node = parse("Q*P + t*Q")
    twice = time_reverse(time_reverse(node))
    a = evaluate(node, ctx.with_t(1.3))
    b = evaluate(twice, ctx.with_t(1.3))
    assert a.distance(b) < 1e-12


# --- explicit time derivative ---------------------------------------------------------

def test_time_derivative_of_time_free_expression(osc_ctx):
    ctx, _ = osc_ctx
    out = explicit_time_derivative(parse("Q^2"), ctx, h=1e-3)
    assert out.norm() < 1e-12


def test_time_derivative_linear(osc_ctx):
    ctx, pair = osc_ctx
    out = explicit_time_derivative(parse("t*Q"), ctx.with_t(0.7), h=1e-4)
    assert out.distance(PseudoObservable(pair.q.observable.entries)) < 1e-10


def test_time_derivative_richardson(osc_ctx):
    ctx, pair = osc_ctx
    node = parse("sin(omega*t)*Q")
    target = pair.q.observable  # omega = 1, derivative at t=0 is omega*Q
    err_h = explicit_time_derivative(node, ctx.with_t(0.0), h=1e-2).distance(target)
    err_h2 = explicit_time_derivative(node, ctx.with_t(0.0), h=5e-3).distance(target)
    assert err_h2 < 0.3 * err_h  # central difference: O(h^2)


# --- fuzzing ----------------------------------------------------------------------------

@st.composite
def asts(draw, depth=0):
    if depth > 3:
        return draw(st.sampled_from([Num(1), Num(2.5), Sym("Q"), Sym("P"), Sym("m")]))
    kind = draw(st.sampled_from(["num", "sym", "add", "mul", "neg", "pow", "call", "div"]))
    if kind == "num":
        return Num(complex(draw(st.integers(0, 99))))
    if kind == "sym":
        return Sym(draw(st.sampled_from(["Q", "P", "m", "omega", "t"])))
    if kind == "neg":
        inner = draw(asts(depth=depth + 1))
        return inner.operand if isinstance(inner, Neg) else Neg(inner)
    if kind == "pow":
        return Pow(draw(asts(depth=depth + 1)), draw(st.integers(1, 4)))
    if kind == "call":
        return Call(draw(st.sampled_from(["cos", "sin", "expi"])),
                    draw(asts(depth=depth + 1)))
    left, right = draw(asts(depth=depth + 1)), draw(asts(depth=depth + 1))
    return {"add": Add, "mul": Mul, "div": Div}[kind](left, right)


@settings(max_examples=150, deadline=None)
@given(asts())
def test_print_parse_round_trip(node):
    assert parse(unparse(node)) == node


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="QPmt+-*/^()cosin 0123456789.", max_size=30))
def test_malformed_inputs_never_crash(source):
    try:
        parse(source)
    except ExprSyntaxError as err:
        assert err.line >= 1 and err.col >= 1


def test_references_time():
    assert references_time(parse("t*Q"))
    assert not references_time(parse(OSC))


def test_spectral_function_rejects_a_non_finite_argument(osc_ctx):
    ctx, _ = osc_ctx
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ExprEvalError, match="finite Hermitian"):
            evaluate(parse("cos(1e200*Q*1e200*Q)"), ctx)


def test_spectral_call_on_a_matrix_probes_hermiticity_twice(monkeypatch):
    # once for the argument, once for the value; the spectral result is not probed
    from obsalg import core

    import obsalg.expr as expr_module

    ctx = EvalContext(dim=2, operators={"Z": Observable(np.diag([1.0, -1.0]))})
    calls = []
    original = core.hermiticity_defect
    for module in (core, expr_module):
        monkeypatch.setattr(module, "hermiticity_defect",
                            lambda e: calls.append(e) or original(e))
    value = evaluate(parse("cos(Z)"), ctx)
    assert len(calls) == 2
    assert type(value) is Observable
    assert np.array_equal(value.entries, np.cos(1.0) * np.eye(2))


def test_node_hash_is_structural_and_computed_once(monkeypatch):
    import pickle

    import obsalg.expr as expr_module

    node = parse("(omega/2)*cos(nu*t)*SX + (delta/2)*SZ")
    first = hash(node)
    calls = []
    original = expr_module.Mul.__hash__
    monkeypatch.setattr(expr_module.Mul, "__hash__",
                        lambda self: calls.append(self) or original(self))
    assert hash(node) == first and calls == []  # the root answers from its cache
    assert hash(parse("(omega/2)*cos(nu*t)*SX + (delta/2)*SZ")) == first
    restored = pickle.loads(pickle.dumps(node))
    assert restored == node and "_hash" not in vars(restored)
    assert hash(restored) == first
