"""Minimal arithmetic expression grammar for inline coefficient specs.

Configurations may define f, g, sigma, phi, and nominal controllers as
strings over ``x1..xn``: ``+ - * / ^``, unary signs, finite numeric literals,
the constants ``pi`` and ``e``, ``sin cos exp tanh sqrt abs`` of one argument
and ``norm``, the Euclidean norm of one or more.  Each is walked once.
"""

from __future__ import annotations

import ast
import operator
import sys
from typing import Callable

import numpy as np

from .errors import ConfigError

# Each function with the most arguments it takes (None: any number); all take one or more.
_FUNCS = {"sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1), "tanh": (np.tanh, 1),
          "sqrt": (np.sqrt, 1), "abs": (np.abs, 1),
          "norm": (lambda *args: np.sqrt(sum(np.square(a) for a in args)), None)}
_CONSTS = {"pi": np.pi, "e": np.e}
_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
        ast.Pow: np.power, ast.USub: operator.neg, ast.UAdd: operator.pos}
# An expression level takes a frame to compile and one to evaluate; half the
# recursion limit leaves the evaluator's callers the rest.
MAX_DEPTH = sys.getrecursionlimit() // 2


def _compile(node: ast.AST, names: set, fail: Callable, depth: int = 0) -> Callable:
    """The evaluator env -> value of a node ``depth`` deep; raises ``fail(reason)`` off grammar."""
    if depth > MAX_DEPTH:
        raise fail(f"nested too deeply (over {MAX_DEPTH} levels)")
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        op = _OPS[type(node.op)]
        left, right = (_compile(side, names, fail, depth + 1) for side in (node.left, node.right))
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        op, operand = _OPS[type(node.op)], _compile(node.operand, names, fail, depth + 1)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        if node.func.id not in _FUNCS:
            raise fail(f"unknown function {node.func.id!r}")
        fn, most = _FUNCS[node.func.id]
        if not node.args or most is not None and len(node.args) > most:
            takes = "one argument" if most == 1 else "one or more arguments"
            raise fail(f"{node.func.id}() takes {takes}, got {len(node.args)}")
        args = [_compile(a, names, fail, depth + 1) for a in node.args]
        return lambda env: fn(*[a(env) for a in args])
    if isinstance(node, ast.Name) and node.id in names:
        return lambda env: env[node.id]
    if isinstance(node, ast.Name):
        if node.id not in _CONSTS:
            raise fail(f"unknown variable {node.id!r}")
        value = _CONSTS[node.id]
    # bool is an int subclass: ``True`` would read as 1.
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if not abs(node.value) <= sys.float_info.max:
            raise fail(f"literal {node.value!r} is not finite")
        value = float(node.value)
    else:
        raise fail("only numeric literals allowed" if isinstance(node, ast.Constant)
                   else f"syntax not allowed ({type(node).__name__})")
    return lambda env: value


def compile_expressions(exprs, n: int, shape: tuple, key: str) -> Callable:
    """Compile an expression of x1..xn, or lists of them nested to ``shape``
    exactly, into a batch map (B, n) -> (B,) + shape.  An error raises
    ConfigError at ``key``, a list item at its index (``system.g[1][0]``)."""
    names = {f"x{i + 1}" for i in range(n)}
    parts = []  # (output index, evaluator) per expression

    def walk(item, index: tuple, here: str) -> None:
        if len(index) < len(shape):
            size = shape[len(index)]
            if not isinstance(item, list) or len(item) != size:
                raise ConfigError(f"expected a list of length {size}", here)
            for i, sub in enumerate(item):
                walk(sub, index + (i,), f"{here}[{i}]")
            return

        def fail(reason: str) -> ConfigError:
            return ConfigError(f"{reason} in expression {item!r}", here)
        if not isinstance(item, str):
            raise ConfigError("expected an expression string", here)
        try:
            tree = ast.parse(item.replace("^", "**"), mode="eval")
        except (SyntaxError, ValueError) as err:  # ValueError: a null byte, on older Pythons
            raise fail(f"cannot parse: {getattr(err, 'msg', err)}") from None
        except (RecursionError, MemoryError):  # the parser's own nesting limits
            raise fail(f"nested too deeply (over {MAX_DEPTH} levels)") from None
        parts.append(((slice(None),) + index, _compile(tree.body, names, fail)))

    walk(exprs, (), key)

    def fn(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        env = {f"x{i + 1}": X[:, i] for i in range(n)}
        out = np.empty((X.shape[0],) + shape)
        for index, evaluate in parts:
            out[index] = evaluate(env)
        return out

    return fn
