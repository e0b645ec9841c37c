"""Small closed-form expression grammar for scenario files.

An expression is a number, a whitelisted name, a one-argument call of sin, cos
or exp, or a combination of these by binary + - * / and unary + -.  The names
are the coordinates x1, y1, ..., xn, yn, the family parameters, the declared
constants and pi.  The text is checked against this grammar on its Python
syntax tree before sympy sees it, so nothing in a scenario file is ever
evaluated as Python.  Parsed expressions can be differentiated symbolically,
which keeps path velocities exact for analytic families.
"""

from __future__ import annotations

import ast
import math

import numpy as np
import sympy as sym

from .errors import ConfigError

_CALLS = {"sin": sym.sin, "cos": sym.cos, "exp": sym.exp}
_RESERVED = set(_CALLS) | {"pi"}


def coordinate_names(n: int) -> list[str]:
    return [f"{axis}{j}" for j in range(1, n + 1) for axis in "xy"]


def _grammatical(node, names) -> bool:
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
                and _grammatical(node.left, names) and _grammatical(node.right, names))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.UAdd, ast.USub)) and _grammatical(node.operand, names)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _CALLS
                and len(node.args) == 1 and not node.keywords
                and _grammatical(node.args[0], names))
    if isinstance(node, ast.Name):
        return node.id in names
    if not isinstance(node, ast.Constant):
        return False
    return type(node.value) is int or (type(node.value) is float and math.isfinite(node.value))


def parse_expression(text, allowed_symbols):
    """Parse an expression of the grammar above over the whitelisted names."""
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    names = set(allowed_symbols) | {"pi"}
    if not _grammatical(tree.body, names):
        raise ConfigError(f"expression {text!r} is outside the grammar: numbers, the names "
                          f"{sorted(names)}, + - * /, and sin, cos, exp of one argument")
    local = {"pi": sym.pi, **_CALLS, **{name: sym.Symbol(name) for name in allowed_symbols}}
    expr = sym.sympify(text, locals=local)
    if expr.has(sym.zoo, sym.nan):
        raise ConfigError(f"expression {text!r} is undefined (a division by zero)")
    return expr


class CoordinateMap:
    """Vector of expressions giving new coordinates from base coordinates and parameters.

    Used for closed-form immersion families: each target coordinate is an
    expression in the base-immersion coordinates of the vertex plus parameter
    symbols.  Derivatives with respect to parameters are formed symbolically.
    The lambdified expressions run on arrays: each parameter enters as a
    (..., 1) column and broadcasts against the (V,) vertex columns, so one call
    evaluates every vertex at every parameter point.
    """

    def __init__(self, exprs: dict, n: int, parameters: list[str], constants: dict | None = None):
        self.n = n
        self.parameters = list(parameters)
        names = coordinate_names(n)
        unknown = sorted(set(exprs) - set(names))
        if unknown:
            raise ConfigError(f"expressions keys {unknown} are not coordinate names {names}")
        declared = self.parameters + sorted(constants or {})
        if len(set(declared)) < len(declared) or set(declared) & (set(names) | _RESERVED):
            raise ConfigError(f"parameter and constant names {declared} must be distinct and "
                              f"differ from the coordinates and {sorted(_RESERVED)}")
        allowed = names + declared
        subs = {sym.Symbol(k): v for k, v in (constants or {}).items()}
        self.exprs = []
        for name in names:
            text = exprs.get(name, name)  # unmentioned coordinates stay fixed
            self.exprs.append(parse_expression(text, allowed).subs(subs))
        args = [sym.Symbol(nm) for nm in names + self.parameters]
        self._fns = [sym.lambdify(args, e, modules="numpy") for e in self.exprs]
        self._dfns = {
            p: [sym.lambdify(args, sym.diff(e, sym.Symbol(p)), modules="numpy") for e in self.exprs]
            for p in self.parameters
        }

    def _args(self, base: np.ndarray, params: np.ndarray) -> list:
        """Vertex columns (V,) and parameter columns (..., 1), which broadcast to (..., V)."""
        return ([base[:, i] for i in range(2 * self.n)]
                + [params[..., k, None] for k in range(len(self.parameters))])

    @staticmethod
    def _columns(fns, args, shape) -> np.ndarray:
        return np.stack([np.broadcast_to(np.asarray(f(*args), dtype=float), shape)
                         for f in fns], axis=-1)

    def positions(self, base: np.ndarray, params) -> np.ndarray:
        """(..., V, 2n) positions of the (V, 2n) base at the (..., m) parameter points."""
        params = np.asarray(params, dtype=float)
        return self._columns(self._fns, self._args(base, params),
                             params.shape[:-1] + (len(base),))

    def velocity(self, base: np.ndarray, params, direction) -> np.ndarray:
        """Directional derivative of positions along the (..., m) directions."""
        params = np.asarray(params, dtype=float)
        direction = np.asarray(direction, dtype=float)
        args = self._args(base, params)
        shape = params.shape[:-1] + (len(base),)
        out = np.zeros(shape + (2 * self.n,))
        for k, p in enumerate(self.parameters):
            w = direction[..., k, None, None]
            if np.any(w != 0):
                out += w * self._columns(self._dfns[p], args, shape)
        return out
