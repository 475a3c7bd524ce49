"""Tiny integer expression language shared by the model, the DSL, and the FSM back end.

Expressions cover integer arithmetic, comparison, and boolean operators.
Evaluation wraps each result to 32-bit signed, and both the reference
simulator and the cycle-level interpreter wrap each stored value to its
declared width, so the two engines agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def evaluate(expr: Expr, env: dict[str, int]) -> int:
    if isinstance(expr, Num):
        return wrap_signed(expr.value)
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise EvalError(f"undefined variable '{expr.name}'") from None
    if isinstance(expr, UnOp):
        v = evaluate(expr.operand, env)
        if expr.op == "-":
            return wrap_signed(-v)
        if expr.op == "!":
            return 0 if v else 1
        raise EvalError(f"unknown unary operator '{expr.op}'")
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env)
        if expr.op == "&&":
            return 1 if (a and evaluate(expr.right, env)) else 0
        if expr.op == "||":
            return 1 if (a or evaluate(expr.right, env)) else 0
        b = evaluate(expr.right, env)
        if expr.op == "+":
            return wrap_signed(a + b)
        if expr.op == "-":
            return wrap_signed(a - b)
        if expr.op == "*":
            return wrap_signed(a * b)
        if expr.op == "/":
            if b == 0:
                raise EvalError("division by zero")
            return wrap_signed(int(a / b))  # C-style truncation
        if expr.op == "%":
            if b == 0:
                raise EvalError("modulo by zero")
            return wrap_signed(a - int(a / b) * b)
        if expr.op == "==":
            return 1 if a == b else 0
        if expr.op == "!=":
            return 1 if a != b else 0
        if expr.op == "<":
            return 1 if a < b else 0
        if expr.op == "<=":
            return 1 if a <= b else 0
        if expr.op == ">":
            return 1 if a > b else 0
        if expr.op == ">=":
            return 1 if a >= b else 0
        raise EvalError(f"unknown operator '{expr.op}'")
    raise EvalError(f"not an expression: {expr!r}")


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
