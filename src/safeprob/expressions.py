"""Arithmetic expression grammar of model documents, and its exact derivatives.

A model document defines f, g, sigma, phi and the policy's nominal and gain
as strings over ``x1..xn``: ``+ - * / ^``, unary signs, finite numeric
literals, the constants ``pi`` and ``e``, ``sin cos exp tanh sqrt abs`` of
one argument and ``norm``, the Euclidean norm of one or more.  Each is walked
once, into a tape of numpy calls, one per distinct node.

``compile_barrier`` also differentiates phi's syntax tree rule by rule
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008), pruning
and folding literals, and tapes the gradient and the Hessian's upper
triangle, mirrored so that it is exactly symmetric.  Where a rule has no
value the derivative takes one: ``abs`` has slope ``sign(0) = 0`` at 0 and
``norm`` gradient and Hessian 0 at the origin; ``sqrt``'s slope is infinite
at 0 and ends as a non-finite phi would.
"""

from __future__ import annotations

import ast
import math
import operator
import sys
from typing import Callable

import numpy as np

from .errors import ConfigError


class _Ratio0(ast.Div):
    """a / b, and 0 where b is 0: the rules' quotient by a norm, which vanishes with a."""


def _ratio0(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.divide(a, b, out=np.zeros(a.shape), where=b != 0)


# Each function with the most arguments it takes (None: any number); all take
# one or more.  The rules' own functions have names no expression can spell.
_FUNCS = {"sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1), "tanh": (np.tanh, 1),
          "sqrt": (np.sqrt, 1), "abs": (np.abs, 1),
          "norm": (lambda *args: np.sqrt(sum(np.square(a) for a in args)), None),
          "log'": (np.log, 1), "sign'": (np.sign, 1)}
_CONSTS = {"pi": np.pi, "e": np.e}
_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
        ast.Pow: np.power, ast.USub: operator.neg, ast.UAdd: operator.pos, _Ratio0: _ratio0}
# An expression level takes a frame to tape and one to differentiate, and a
# tape runs as a loop; half the recursion limit leaves the callers the rest.
MAX_DEPTH = sys.getrecursionlimit() // 2
# An error quotes at most this many characters of its expression.
QUOTED_CHARS = 60


def _quoted(expr: str) -> str:
    """``expr`` quoted, or its first ``QUOTED_CHARS`` characters, ``…`` and its length."""
    if len(expr) <= QUOTED_CHARS:
        return repr(expr)
    return f"{expr[:QUOTED_CHARS]!r}… ({len(expr)} characters)"


def _batch_map(n: int, items: list, shape: tuple) -> Callable:
    """The batch map (B, n) -> (B,) + shape that writes, for each item
    (output index, tree, fail) of ``items``, the tree's value at the index.
    The trees share one tape of numpy calls, run as a loop, that evaluates
    each distinct node once; an entry of the literal 0 stays a zero.  A node
    off grammar or deeper than ``MAX_DEPTH`` raises its item's ``fail``."""
    columns = {f"x{i + 1}": i for i in range(n)}
    init = [None] * n  # each slot's literal; None for a column or a call
    calls, slots = [], {}  # (slot, function, argument slots); id(node) -> slot

    def add(node: ast.AST, fail: Callable, depth: int) -> int:
        # ``items`` keeps every node alive, so an id names one node.
        if id(node) in slots:
            return slots[id(node)]
        if depth > MAX_DEPTH:
            raise fail(f"nested too deeply (over {MAX_DEPTH} levels)")
        value, args = None, ()
        if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _OPS:
            call = _OPS[type(node.op)]
            args = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            if node.func.id not in _FUNCS:
                raise fail(f"unknown function {node.func.id!r}")
            call, most = _FUNCS[node.func.id]
            if not node.args or most is not None and len(node.args) > most:
                takes = "one argument" if most == 1 else "one or more arguments"
                raise fail(f"{node.func.id}() takes {takes}, got {len(node.args)}")
            args = node.args
        elif isinstance(node, ast.Name) and node.id in columns:
            return columns[node.id]
        elif isinstance(node, ast.Name):
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
        taped = []  # a loop, not a comprehension, takes no frame of its own
        for a in args:
            taped.append(add(a, fail, depth + 1))
        init.append(value)
        if value is None:
            calls.append((len(init) - 1, call, taped))
        slots[id(node)] = len(init) - 1
        return len(init) - 1

    writes = []
    for index, tree, fail in items:
        try:
            slot = add(tree, fail, 0)
        except RecursionError:
            raise fail(f"nested too deeply (over {MAX_DEPTH} levels)") from None
        if init[slot] != 0:
            writes.append((index, slot))
    new = np.empty if len(writes) == len(items) else np.zeros

    def fn(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        values = init.copy()
        values[:n] = X.T[:n]
        for slot, call, args in calls:
            values[slot] = call(*map(values.__getitem__, args))
        out = new((X.shape[0],) + shape)
        for index, slot in writes:
            out[index] = values[slot]
        return out

    return fn


_ZERO, _HALF, _ONE, _TWO = (ast.Constant(v) for v in (0.0, 0.5, 1.0, 2.0))


def _is(node: ast.AST, value: float) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _op(op, *args: ast.AST) -> ast.AST:
    """The node applying ``op``, an ast operator class or a function name, to
    ``args``: pruned where an argument is 0 or 1, and a literal where every
    argument is one and the value is finite."""
    a, b = args[0], args[-1]
    if op is ast.Mult and _is(b, 0) or op in (ast.Mult, ast.Div, _Ratio0, ast.USub) and _is(a, 0):
        return _ZERO
    if op in (ast.Add, ast.Sub) and _is(b, 0) or op in (ast.Mult, ast.Div, ast.Pow) and _is(b, 1):
        return a
    if op is ast.Add and _is(a, 0) or op is ast.Mult and _is(a, 1):
        return b
    if op is ast.Sub and _is(a, 0):
        return _op(ast.USub, b)
    # -(c * u) is (-c) * u exactly, one call fewer.
    if op is ast.USub and isinstance(a, ast.BinOp) and type(a.op) is ast.Mult \
            and isinstance(a.left, ast.Constant):
        return _op(ast.Mult, _op(ast.USub, a.left), a.right)
    if all(isinstance(arg, ast.Constant) for arg in args):
        with np.errstate(all="ignore"):
            value = float((_FUNCS[op][0] if isinstance(op, str) else _OPS[op])(
                *(float(arg.value) for arg in args)))
        if math.isfinite(value):
            return ast.Constant(value)
    if isinstance(op, str):
        return ast.Call(ast.Name(op), list(args), [])
    return ast.UnaryOp(op(), a) if len(args) == 1 else ast.BinOp(a, op(), b)


# Each one-argument function's slope at its argument u, given its node f(u).
_SLOPES = {
    "sin": lambda u, f: _op("cos", u),
    "cos": lambda u, f: _op(ast.USub, _op("sin", u)),
    "exp": lambda u, f: f,
    "tanh": lambda u, f: _op(ast.Sub, _ONE, _op(ast.Pow, f, _TWO)),
    "sqrt": lambda u, f: _op(ast.Div, _HALF, f),
    "abs": lambda u, f: _op("sign'", u),
    "log'": lambda u, f: _op(ast.Div, _ONE, u),
    "sign'": lambda u, f: _ZERO,
}


def _derive(node: ast.AST, var: str, memo: dict) -> ast.AST:
    """The derivative of a taped node by the variable ``var``.  ``memo`` maps
    id(node) to (node, derivative) for ``var``: each distinct node is derived
    once, and shared subtrees stay shared."""
    if id(node) in memo:
        return memo[id(node)][1]
    if isinstance(node, (ast.Name, ast.Constant)):
        d = _ONE if isinstance(node, ast.Name) and node.id == var else _ZERO
    elif isinstance(node, ast.UnaryOp):
        d = _derive(node.operand, var, memo)
        d = d if isinstance(node.op, ast.UAdd) else _op(ast.USub, d)
    elif isinstance(node, ast.BinOp):
        u, v, op = node.left, node.right, type(node.op)
        du, dv = _derive(u, var, memo), _derive(v, var, memo)
        if op in (ast.Add, ast.Sub):
            d = _op(op, du, dv)
        elif op is ast.Mult:
            d = _op(ast.Add, _op(ast.Mult, du, v), _op(ast.Mult, u, dv))
        elif op in (ast.Div, _Ratio0):
            d = _op(op, _op(ast.Sub, _op(ast.Mult, du, v), _op(ast.Mult, u, dv)),
                    _op(ast.Pow, v, _TWO))
        elif _is(dv, 0):  # u ^ v, v constant in var
            d = _op(ast.Mult, _op(ast.Mult, v, _op(ast.Pow, u, _op(ast.Sub, v, _ONE))), du)
        else:
            d = _op(ast.Mult, node, _op(ast.Add, _op(ast.Mult, dv, _op("log'", u)),
                                        _op(ast.Div, _op(ast.Mult, v, du), u)))
    elif node.func.id == "norm":
        d = _ZERO
        for a in node.args:
            d = _op(ast.Add, d, _op(ast.Mult, a, _derive(a, var, memo)))
        d = _op(_Ratio0, d, node)
    else:
        du = _derive(node.args[0], var, memo)
        d = _ZERO if _is(du, 0) else _op(ast.Mult, _SLOPES[node.func.id](node.args[0], node), du)
    memo[id(node)] = (node, d)
    return d


def _parse(expr, here: str) -> tuple[ast.AST, Callable]:
    """The syntax tree of ``expr``, and the error maker of ``here``."""
    def fail(reason: str) -> ConfigError:
        return ConfigError(f"{reason} in expression {_quoted(expr)}", here)
    if not isinstance(expr, str):
        raise ConfigError("expected an expression string", here)
    try:
        return ast.parse(expr.replace("^", "**"), mode="eval").body, fail
    except (SyntaxError, ValueError) as err:  # ValueError: a null byte, on older Pythons
        raise fail(f"cannot parse: {getattr(err, 'msg', err)}") from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise fail(f"nested too deeply (over {MAX_DEPTH} levels)") from None


def compile_expressions(exprs, n: int, shape: tuple, key: str) -> Callable:
    """Compile an expression of x1..xn, or lists of them nested to ``shape``
    exactly, into a batch map (B, n) -> (B,) + shape.  An error raises
    ConfigError at ``key``, a list item at its index (``system.g[1][0]``)."""
    items = []

    def walk(item, index: tuple, here: str) -> None:
        if len(index) < len(shape):
            size = shape[len(index)]
            if not isinstance(item, list) or len(item) != size:
                raise ConfigError(f"expected a list of length {size}", here)
            for i, sub in enumerate(item):
                walk(sub, index + (i,), f"{here}[{i}]")
        else:
            items.append(((slice(None),) + index, *_parse(item, here)))

    walk(exprs, (), key)
    return _batch_map(n, items, shape)


def compile_barrier(expr, n: int, key: str) -> tuple[Callable, Callable, Callable]:
    """phi, an expression of x1..xn, and its exact gradient and Hessian, as batch
    maps (B, n) to (B,), (B, n) and (B, n, n).  An error in phi or in a
    derivative, one nested past ``MAX_DEPTH`` too, raises ConfigError at ``key``."""
    tree, fail = _parse(expr, key)
    phi, every, memos = _batch_map(n, [((slice(None),), tree, fail)], ()), slice(None), {}
    try:
        grad = [_derive(tree, f"x{i + 1}", memos.setdefault(i, {})) for i in range(n)]
        # The upper triangle; (j, i) reads the tree of (i, j), taped once.
        hess = {(i, j): _derive(grad[i], f"x{j + 1}", memos[j])
                for i in range(n) for j in range(i, n)}
    except RecursionError:
        raise fail(f"nested too deeply (over {MAX_DEPTH} levels)") from None
    return (phi, _batch_map(n, [((every, i), d, fail) for i, d in enumerate(grad)], (n,)),
            _batch_map(n, [((every, i, j), hess[min(i, j), max(i, j)], fail)
                           for i in range(n) for j in range(n)], (n, n)))
