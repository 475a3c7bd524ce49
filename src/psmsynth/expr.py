"""Tiny integer expression language shared by the model, the DSL, and the FSM back end.

Expressions cover integer arithmetic, comparison, and boolean operators.
Evaluation wraps each result to 32-bit signed, and both the reference
simulator and the cycle-level interpreter wrap each stored value to its
declared width, so the two engines agree bit-for-bit.  `compile_expr` is the
one implementation of the operators: it turns a tree into a closure once,
and `evaluate` runs that closure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class UnOp:
    op: str  # '-' or '!'
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Num | Var | UnOp | BinOp

# Binding strength, loosest first.  Mirrors C so the grammar is unsurprising.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

BINARY_OPS = frozenset(_PRECEDENCE)
PRECEDENCE = _PRECEDENCE


def wrap_signed(value: int, width: int = 32) -> int:
    mask = (1 << width) - 1
    value &= mask
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


_HALF32, _MASK32 = 1 << 31, (1 << 32) - 1
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def compile_expr(expr: Expr) -> Callable[[dict[str, int]], int]:
    """One closure that evaluates `expr` in an environment: each result wraps
    to 32-bit signed, `/` and `%` truncate toward zero as in C, `&&` and `||`
    short-circuit.  Errors are raised when the closure runs, as `EvalError`."""
    if isinstance(expr, Num):
        value = wrap_signed(expr.value)
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"undefined variable '{name}'") from None
        return var
    if isinstance(expr, UnOp):
        operand = compile_expr(expr.operand)
        if expr.op == "-":
            return lambda env: ((_HALF32 - operand(env)) & _MASK32) - _HALF32
        if expr.op == "!":
            return lambda env: 0 if operand(env) else 1
        return _failing(f"unknown unary operator '{expr.op}'", operand)
    if isinstance(expr, BinOp):
        left, right, op = compile_expr(expr.left), compile_expr(expr.right), expr.op
        if op == "&&":
            return lambda env: 1 if (left(env) and right(env)) else 0
        if op == "||":
            return lambda env: 1 if (left(env) or right(env)) else 0
        if op in _ARITHMETIC:
            f = _ARITHMETIC[op]
            return lambda env: ((f(left(env), right(env)) + _HALF32) & _MASK32) - _HALF32
        if op in _COMPARISONS:
            f = _COMPARISONS[op]
            return lambda env: 1 if f(left(env), right(env)) else 0
        if op in ("/", "%"):
            message = "division by zero" if op == "/" else "modulo by zero"

            def divide(env):
                a, b = left(env), right(env)
                if b == 0:
                    raise EvalError(message)
                q = int(a / b)  # C-style truncation
                return wrap_signed(q if op == "/" else a - q * b)
            return divide
        return _failing(f"unknown operator '{op}'", left, right)
    return _failing(f"not an expression: {expr!r}")


def _failing(message: str, *operands: Callable[[dict[str, int]], int]):
    """A closure that evaluates `operands` in order, then raises `message`."""
    def fail(env):
        for operand in operands:
            operand(env)
        raise EvalError(message)
    return fail


def evaluate(expr: Expr, env: dict[str, int]) -> int:
    return compile_expr(expr)(env)


def free_vars(expr: Expr) -> set[str]:
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, UnOp):
        return free_vars(expr.operand)
    if isinstance(expr, BinOp):
        return free_vars(expr.left) | free_vars(expr.right)
    return set()


def to_text(expr: Expr, parent_prec: int = 0) -> str:
    """Render with the minimum parentheses needed to re-parse identically."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, UnOp):
        inner = to_text(expr.operand, 7)
        return f"{expr.op}{inner}"
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        # Left-associative chain: right child needs parens at equal precedence.
        left = to_text(expr.left, prec)
        right = to_text(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise ValueError(f"not an expression: {expr!r}")
