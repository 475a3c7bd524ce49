"""Expression evaluation, wrap-around arithmetic, and text round-trips."""

import re

import pytest
from hypothesis import given, strategies as st

from psmsynth import expr as ex


def test_wrap_signed_32bit():
    assert ex.wrap_signed(2**31) == -(2**31)
    assert ex.wrap_signed(2**31 - 1) == 2**31 - 1
    assert ex.wrap_signed(-(2**31) - 1) == 2**31 - 1
    assert ex.wrap_signed(2**32) == 0
    assert ex.wrap_signed(-5) == -5


def test_arithmetic_and_comparison():
    env = {"a": 7, "b": -3}
    e = ex.BinOp("+", ex.Var("a"), ex.BinOp("*", ex.Var("b"), ex.Num(2)))
    assert ex.evaluate(e, env) == 1
    assert ex.evaluate(ex.BinOp("<", ex.Var("b"), ex.Num(0)), env) == 1
    assert ex.evaluate(ex.BinOp(">=", ex.Var("a"), ex.Num(7)), env) == 1
    assert ex.evaluate(ex.UnOp("-", ex.Var("a")), env) == -7
    assert ex.evaluate(ex.UnOp("!", ex.Num(0)), env) == 1


def test_division_truncates_toward_zero():
    env = {}
    assert ex.evaluate(ex.BinOp("/", ex.Num(-7), ex.Num(2)), env) == -3
    assert ex.evaluate(ex.BinOp("/", ex.Num(7), ex.Num(-2)), env) == -3
    assert ex.evaluate(ex.BinOp("%", ex.Num(-7), ex.Num(2)), env) == -1
    assert ex.evaluate(ex.BinOp("%", ex.Num(7), ex.Num(-2)), env) == 1


def test_division_by_zero_raises():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.BinOp("/", ex.Num(1), ex.Num(0)), {})
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.BinOp("%", ex.Num(1), ex.Num(0)), {})


def test_boolean_short_circuit():
    # The right side would divide by zero; && must not evaluate it.
    bad = ex.BinOp("/", ex.Num(1), ex.Num(0))
    assert ex.evaluate(ex.BinOp("&&", ex.Num(0), bad), {}) == 0
    assert ex.evaluate(ex.BinOp("||", ex.Num(1), bad), {}) == 1


def test_undefined_variable_raises():
    with pytest.raises(ex.EvalError):
        ex.evaluate(ex.Var("nope"), {})


def test_free_vars():
    e = ex.BinOp("+", ex.Var("x"), ex.UnOp("-", ex.Var("y")))
    assert ex.free_vars(e) == {"x", "y"}
    assert ex.free_vars(ex.Num(3)) == set()


def test_to_text_minimal_parentheses():
    e = ex.BinOp("*", ex.BinOp("+", ex.Var("a"), ex.Var("b")), ex.Num(2))
    assert ex.to_text(e) == "(a + b) * 2"
    e = ex.BinOp("+", ex.Var("a"), ex.BinOp("*", ex.Var("b"), ex.Num(2)))
    assert ex.to_text(e) == "a + b * 2"
    e = ex.BinOp("-", ex.Var("a"), ex.BinOp("-", ex.Var("b"), ex.Var("c")))
    assert ex.to_text(e) == "a - (b - c)"


_exprs = st.recursive(
    st.integers(min_value=0, max_value=999).map(ex.Num)
    | st.sampled_from(["a", "b", "c"]).map(ex.Var),
    lambda inner: st.tuples(
        st.sampled_from(sorted(ex.BINARY_OPS)), inner, inner
    ).map(lambda t: ex.BinOp(*t))
    | st.tuples(st.sampled_from(["-", "!"]), inner).map(lambda t: ex.UnOp(*t)),
    max_leaves=12,
)


@given(_exprs)
def test_text_round_trip_preserves_structure(e):
    # Re-parsing the rendered text must give back the identical tree.
    from psmsynth.dsl import _Parser, _tokenize

    text = ex.to_text(e)
    tokens, diags = _tokenize(text, "<expr>")
    assert not diags
    parser = _Parser(tokens, diags)
    assert parser.expression() == e
    assert parser.here.kind == "eof"


# --- Compiled closures against a tree-walking reference ---------------------------

def _wrap32(value: int) -> int:
    return (value + 2**31) % 2**32 - 2**31


def _reference(e, env):
    """Tree-walking evaluation with exact integer C truncation."""
    if isinstance(e, ex.Num):
        return _wrap32(e.value)
    if isinstance(e, ex.Var):
        if e.name not in env:
            raise ex.EvalError(f"undefined variable '{e.name}'")
        return env[e.name]
    if isinstance(e, ex.UnOp):
        v = _reference(e.operand, env)
        return _wrap32(-v) if e.op == "-" else int(v == 0)
    a = _reference(e.left, env)
    if e.op in ("&&", "||"):
        if (a != 0) == (e.op == "||"):  # decided by the left side
            return int(a != 0)
        return int(_reference(e.right, env) != 0)
    b = _reference(e.right, env)
    if e.op in ("/", "%"):
        if b == 0:
            raise ex.EvalError("division by zero" if e.op == "/" else "modulo by zero")
        q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        return _wrap32(q if e.op == "/" else a - q * b)
    return {
        "+": lambda: _wrap32(a + b), "-": lambda: _wrap32(a - b), "*": lambda: _wrap32(a * b),
        "==": lambda: int(a == b), "!=": lambda: int(a != b), "<": lambda: int(a < b),
        "<=": lambda: int(a <= b), ">": lambda: int(a > b), ">=": lambda: int(a >= b),
    }[e.op]()


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except ex.EvalError as err:
        return "EvalError", str(err)
    return type(value), value


_EDGES = [0, 1, -1, 2, -2, 3, -7, 2**31 - 1, -(2**31), 2**31, 2**32 - 1, 2**16 + 1]
_ints32 = st.sampled_from(_EDGES) | st.integers(min_value=-(2**31), max_value=2**31 - 1)
# 'z' is never bound, so a tree that reaches it must fail as the reference does.
_edge_exprs = st.recursive(
    _ints32.map(ex.Num) | st.sampled_from(["a", "b", "c", "z"]).map(ex.Var),
    lambda inner: st.tuples(
        st.sampled_from(sorted(ex.BINARY_OPS)), inner, inner
    ).map(lambda t: ex.BinOp(*t))
    | st.tuples(st.sampled_from(["-", "!"]), inner).map(lambda t: ex.UnOp(*t)),
    max_leaves=10,
)
_envs = st.fixed_dictionaries({"a": _ints32, "b": _ints32, "c": _ints32})


@given(_edge_exprs, _envs)
def test_compiled_closure_matches_the_reference(e, env):
    # Values, int (not bool) results and EvalError messages all agree.
    assert _outcome(ex.compile_expr(e), env) == _outcome(_reference, e, env)


@given(
    st.sampled_from(sorted(ex.BINARY_OPS)),
    _ints32.map(ex.Num) | st.integers(min_value=2**31, max_value=2**32 - 1).map(ex.Num),
    _envs,
)
def test_each_compiled_operator_matches_the_reference(op, leaf, env):
    # One operator over a constant that may need wrapping and a variable of
    # either sign: every sign pair of `/` and `%` is reached.
    for e in (ex.BinOp(op, leaf, ex.Var("a")), ex.BinOp(op, ex.Var("a"), leaf),
              ex.UnOp("-", leaf), ex.UnOp("!", leaf)):
        assert _outcome(ex.compile_expr(e), env) == _outcome(_reference, e, env)


@given(st.sampled_from(["&&", "||"]), _edge_exprs, st.sampled_from(["/", "%"]), _envs)
def test_compiled_short_circuit_skips_a_failing_right_side(op, left, div, env):
    e = ex.BinOp(op, left, ex.BinOp(div, ex.Var("a"), ex.Num(0)))
    assert _outcome(ex.compile_expr(e), env) == _outcome(_reference, e, env)


@pytest.mark.parametrize("e, message", [
    (ex.Var("nope"), "undefined variable 'nope'"),
    (ex.BinOp("/", ex.Num(1), ex.Num(0)), "division by zero"),
    (ex.BinOp("%", ex.Num(-5), ex.BinOp("-", ex.Num(2), ex.Num(2))), "modulo by zero"),
    (ex.BinOp("+", ex.Num(1), ex.Var("nope")), "undefined variable 'nope'"),
    (ex.UnOp("~", ex.Num(1)), "unknown unary operator '~'"),
    (ex.BinOp("**", ex.Num(2), ex.Num(3)), "unknown operator '**'"),
    ("x", "not an expression: 'x'"),
])
def test_compiling_never_raises_and_running_raises_the_evaluation_error(e, message):
    run = ex.compile_expr(e)
    with pytest.raises(ex.EvalError, match=re.escape(message)):
        run({})
    with pytest.raises(ex.EvalError, match=re.escape(message)):
        ex.evaluate(e, {})
