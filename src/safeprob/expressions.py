"""Minimal arithmetic expression grammar for inline coefficient specs.

Configurations may define f, g, sigma, phi, and nominal controllers as
strings over the state variables ``x1..xn`` using ``+ - * / ^``, unary
minus, numeric literals, the constants ``pi`` and ``e``, and the
functions ``sin cos exp tanh sqrt abs norm``.  ``norm(a, b, ...)`` is the
Euclidean norm of its arguments.  Expressions are parsed once and
evaluated on whole batches of stacked states.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .errors import ConfigError

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _check(node: ast.AST, names: set, expr: str) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, names, expr)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ConfigError(f"operator not allowed in expression {expr!r}")
        _check(node.left, names, expr)
        _check(node.right, names, expr)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ConfigError(f"unary operator not allowed in expression {expr!r}")
        _check(node.operand, names, expr)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ConfigError(f"only plain function calls allowed in expression {expr!r}")
        if node.func.id != "norm" and node.func.id not in _FUNCS:
            raise ConfigError(f"unknown function {node.func.id!r} in expression {expr!r}")
        if node.func.id == "norm" and not node.args:
            raise ConfigError(f"norm() needs at least one argument in expression {expr!r}")
        for a in node.args:
            _check(a, names, expr)
    elif isinstance(node, ast.Name):
        if node.id not in names and node.id not in _CONSTS:
            raise ConfigError(f"unknown variable {node.id!r} in expression {expr!r}")
    elif isinstance(node, ast.Constant):
        # bool is an int subclass: ``True`` would read as 1.
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError(f"only numeric literals allowed in expression {expr!r}")
    else:
        raise ConfigError(f"syntax not allowed in expression {expr!r}")


def _evaluate(node: ast.AST, env: dict):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = _evaluate(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else +val
    if isinstance(node, ast.Call):
        args = [_evaluate(a, env) for a in node.args]
        if node.func.id == "norm":
            return np.sqrt(sum(np.square(a) for a in args))
        return _FUNCS[node.func.id](*args)
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTS[node.id]
    if isinstance(node, ast.Constant):
        return float(node.value)
    raise ConfigError("unreachable expression node")


def compile_scalar(expr: str, n: int) -> Callable:
    """Compile one expression of x1..xn into a batch map (B, n) -> (B,)."""
    if not isinstance(expr, str):
        expr = repr(float(expr))
    names = {f"x{i + 1}" for i in range(n)}
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"cannot parse expression {expr!r}: {err.msg}") from None
    _check(tree, names, expr)

    def fn(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        env = {f"x{i + 1}": X[:, i] for i in range(n)}
        out = _evaluate(tree, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],)).copy()

    return fn


def compile_vector(exprs, n: int) -> Callable:
    """Compile a list of expressions into a map (B, n) -> (B, len(exprs))."""
    parts = [compile_scalar(e, n) for e in exprs]

    def fn(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([p(X) for p in parts], axis=1)

    return fn


def compile_matrix(rows, n: int) -> Callable:
    """Compile a nested list into a map (B, n) -> (B, n_rows, n_cols)."""
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError("matrix expression rows must be non-empty and rectangular")
    parts = [[compile_scalar(e, n) for e in row] for row in rows]

    def fn(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([np.stack([p(X) for p in row], axis=1) for row in parts], axis=1)

    return fn
