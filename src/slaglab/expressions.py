"""Small closed-form expression grammar for scenario files.

Expressions are parsed with sympy against a fixed symbol whitelist: coordinate
names x1, y1, ..., xn, yn, parameter names (t, u1, u2, ...), and any constants
declared by the caller.  Supported functions: sin, cos, exp.  Parsed
expressions can be differentiated symbolically, which keeps path velocities
exact for analytic families.
"""

from __future__ import annotations

import numpy as np
import sympy as sym

from .errors import ConfigError

_FUNCTIONS = {"sin": sym.sin, "cos": sym.cos, "exp": sym.exp, "pi": sym.pi}


def coordinate_names(n: int) -> list[str]:
    out = []
    for j in range(1, n + 1):
        out.extend([f"x{j}", f"y{j}"])
    return out


def parse_expression(text, allowed_symbols):
    """Parse an expression string; every free symbol must be whitelisted."""
    local = dict(_FUNCTIONS)
    for name in allowed_symbols:
        local[name] = sym.Symbol(name)
    try:
        expr = sym.sympify(text, locals=local)
    except (sym.SympifyError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    extra = {str(s) for s in expr.free_symbols} - set(allowed_symbols)
    if extra:
        raise ConfigError(f"expression {text!r} uses unknown symbols {sorted(extra)}")
    return expr


class CoordinateMap:
    """Vector of expressions giving new coordinates from base coordinates and parameters.

    Used for closed-form immersion families: each target coordinate is an
    expression in the base-immersion coordinates of the vertex plus parameter
    symbols.  Derivatives with respect to parameters are formed symbolically.
    """

    def __init__(self, exprs: dict, n: int, parameters: list[str], constants: dict | None = None):
        self.n = n
        self.parameters = list(parameters)
        names = coordinate_names(n)
        allowed = names + self.parameters + sorted(constants or {})
        subs = {sym.Symbol(k): v for k, v in (constants or {}).items()}
        self.exprs = []
        for name in names:
            text = exprs.get(name, name)  # unmentioned coordinates stay fixed
            self.exprs.append(parse_expression(text, allowed).subs(subs))
        self._coord_syms = [sym.Symbol(nm) for nm in names]
        self._param_syms = [sym.Symbol(nm) for nm in self.parameters]
        args = self._coord_syms + self._param_syms
        self._fns = [sym.lambdify(args, e, modules="numpy") for e in self.exprs]
        self._dfns = {
            p: [sym.lambdify(args, sym.diff(e, sym.Symbol(p)), modules="numpy") for e in self.exprs]
            for p in self.parameters
        }

    def _args(self, base: np.ndarray, params) -> list:
        cols = [base[:, i] for i in range(2 * self.n)]
        vals = list(np.atleast_1d(np.asarray(params, dtype=float)))
        if len(vals) != len(self.parameters):
            raise ConfigError(
                f"family expects parameters {self.parameters}, got {len(vals)} values"
            )
        return cols + vals

    def positions(self, base: np.ndarray, params) -> np.ndarray:
        args = self._args(base, params)
        cols = [np.broadcast_to(np.asarray(f(*args), dtype=float), (len(base),)) for f in self._fns]
        return np.stack(cols, axis=1)

    def velocity(self, base: np.ndarray, params, direction) -> np.ndarray:
        """Directional derivative of positions along `direction` in parameter space."""
        args = self._args(base, params)
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        out = np.zeros((len(base), 2 * self.n))
        for p, w in zip(self.parameters, direction):
            if w == 0:
                continue
            cols = [
                np.broadcast_to(np.asarray(f(*args), dtype=float), (len(base),))
                for f in self._dfns[p]
            ]
            out += w * np.stack(cols, axis=1)
        return out
